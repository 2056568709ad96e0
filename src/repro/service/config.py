"""The validated build-service configuration.

:class:`BuildService` grew one keyword argument per PR —
``cache_dir=``, ``cache_max_bytes=``, ``max_workers=``, ``shards=``,
``ledger=``, ``metrics_path=``, ``incremental=`` — until constructing a
service meant threading seven loose knobs through every call site.
:class:`ServiceConfig` collapses that surface into one frozen,
self-validating dataclass, mirroring :class:`~repro.core.pipeline.
CalibroConfig`: invalid values raise :class:`~repro.core.errors.
ConfigError` at construction (never deep inside a build), and the
config round-trips through ``to_dict`` / ``from_dict`` — the JSON
format ``calibro serve`` persists and ``BuildService.stats()`` reports
(under ``stats()["config"]``, carrying its own ``schema_version``).

Callers write::

    from repro.service import BuildService, ServiceConfig

    config = ServiceConfig(cache_dir="cache", shards=4, incremental=True)
    with BuildService(config) as service:
        ...
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields

from repro.core.errors import ConfigError
from repro.service.cache import DEFAULT_MAX_BYTES

__all__ = ["SERVICE_CONFIG_SCHEMA_VERSION", "ServiceConfig"]

#: Version of the ``ServiceConfig.to_dict()`` document (surfaced in
#: ``BuildService.stats()["config"]["schema_version"]``).  Bump on any
#: field addition, removal or meaning change; ``from_dict`` refuses
#: newer documents with a clear error.
#: v2: added ``shared_cache`` (cross-process cache sharing knob).
#: v3: removed ``shared_cache`` (executor children never open a cache).
#: v4: removed ``group_timeout``, ``shard_timeout`` and
#: ``cache_memory_entries`` (no caller set them).
SERVICE_CONFIG_SCHEMA_VERSION = 4


@dataclass(frozen=True)
class ServiceConfig:
    """Everything a :class:`~repro.service.BuildService` needs to know,
    in one validated value.

    Paths (``cache_dir``, ``ledger``, ``metrics_path``) accept
    ``os.PathLike`` and are normalized to strings so the config stays
    JSON-serializable.
    """

    #: Persistent cache directory; ``None`` keeps the cache in memory.
    cache_dir: str | None = None
    #: Disk-tier size bound in bytes (LRU eviction above it).
    cache_max_bytes: int = DEFAULT_MAX_BYTES
    #: Worker pool width; ``None`` = usable CPUs.
    max_workers: int | None = None
    #: ``>= 2`` makes the service's executor the multi-process shard
    #: executor; ``None``/``1`` makes it the per-group worker pool.
    shards: int | None = None
    #: JSONL build-ledger path; every build appends its durable record.
    ledger: str | None = None
    #: Prometheus exposition file, refreshed after every build.
    metrics_path: str | None = None
    #: Route builds through the keyed dependency graph (delta builds).
    incremental: bool = False

    def __post_init__(self) -> None:
        for name in ("cache_dir", "ledger", "metrics_path"):
            value = getattr(self, name)
            if value is None or isinstance(value, str):
                continue
            if not isinstance(value, os.PathLike):
                raise ConfigError(f"{name} must be a path or None, got {value!r}")
            object.__setattr__(self, name, os.fspath(value))
        for name in ("cache_max_bytes", "max_workers", "shards"):
            value = getattr(self, name)
            if value is None and name != "cache_max_bytes":
                continue
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"{name} must be an int, got {value!r}")
        if not isinstance(self.incremental, bool):
            raise ConfigError(f"incremental must be a bool, got {self.incremental!r}")
        if self.cache_max_bytes < 1:
            raise ConfigError(
                f"cache_max_bytes must be >= 1, got {self.cache_max_bytes}"
            )
        if self.max_workers is not None and self.max_workers < 1:
            raise ConfigError(
                f"max_workers must be None or >= 1, got {self.max_workers}"
            )
        if self.shards is not None and self.shards < 1:
            raise ConfigError(f"shards must be None or >= 1, got {self.shards}")

    # -- the shared dict format (CLI ⇄ service ⇄ stats) ---------------------

    def to_dict(self) -> dict[str, object]:
        """A JSON-compatible dict; ``from_dict`` round-trips it."""
        out: dict[str, object] = {"schema_version": SERVICE_CONFIG_SCHEMA_VERSION}
        for spec in fields(self):
            out[spec.name] = getattr(self, spec.name)
        return out

    @classmethod
    def from_dict(cls, data: dict[str, object]) -> "ServiceConfig":
        """Build a config from the ``to_dict`` shape.  Unknown keys and
        newer schema versions are rejected — a typo'd knob must not
        silently configure nothing."""
        if not isinstance(data, dict):
            raise ConfigError(
                f"service config must be a mapping, got {type(data).__name__}"
            )
        payload = dict(data)
        version = payload.pop("schema_version", SERVICE_CONFIG_SCHEMA_VERSION)
        if not isinstance(version, int) or version < 1:
            raise ConfigError(f"bad service config schema_version: {version!r}")
        if version > SERVICE_CONFIG_SCHEMA_VERSION:
            raise ConfigError(
                f"service config schema_version {version} is newer than this "
                f"build understands ({SERVICE_CONFIG_SCHEMA_VERSION})"
            )
        known = {spec.name for spec in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ConfigError(f"unknown service config keys: {', '.join(unknown)}")
        return cls(**payload)
