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
SERVICE_CONFIG_SCHEMA_VERSION = 2


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
    #: In-memory LRU entry bound (always present, disk or not).
    cache_memory_entries: int = 256
    #: Worker pool width; ``None`` = usable CPUs.
    max_workers: int | None = None
    #: Per-group timeout (seconds) in the worker pool; ``None`` = wait.
    group_timeout: float | None = None
    #: ``>= 2`` routes group work through the multi-process shard
    #: executor; ``None``/``1`` uses the in-process worker pool.
    shards: int | None = None
    #: Per-batch timeout (seconds) for one shard dispatch.
    shard_timeout: float | None = None
    #: JSONL build-ledger path; every build appends its durable record.
    ledger: str | None = None
    #: Prometheus exposition file, refreshed after every build.
    metrics_path: str | None = None
    #: Route builds through the keyed dependency graph (delta builds).
    incremental: bool = False
    #: Give shard/pool worker processes their own read-through handle
    #: on the disk cache (cross-process, cross-tenant reuse).  ``None``
    #: resolves to "on exactly when ``cache_dir`` is set"; ``True``
    #: without a ``cache_dir`` is a configuration error (there is no
    #: disk tier to share).
    shared_cache: bool | None = None

    @property
    def shared_cache_enabled(self) -> bool:
        """The resolved ``shared_cache`` knob: the explicit value when
        one was given, else on exactly when the cache persists to
        disk."""
        if self.shared_cache is not None:
            return self.shared_cache
        return self.cache_dir is not None

    def __post_init__(self) -> None:
        for name in ("cache_dir", "ledger", "metrics_path"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, str):
                object.__setattr__(self, name, os.fspath(value))
        if self.cache_max_bytes < 0:
            raise ConfigError(
                f"cache_max_bytes must be >= 0, got {self.cache_max_bytes}"
            )
        if self.cache_memory_entries < 1:
            raise ConfigError(
                f"cache_memory_entries must be >= 1, got {self.cache_memory_entries}"
            )
        if self.max_workers is not None and self.max_workers < 1:
            raise ConfigError(
                f"max_workers must be None or >= 1, got {self.max_workers}"
            )
        if self.shards is not None and self.shards < 1:
            raise ConfigError(f"shards must be None or >= 1, got {self.shards}")
        for name in ("group_timeout", "shard_timeout"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ConfigError(f"{name} must be None or > 0, got {value}")
        if self.shared_cache is not None and not isinstance(self.shared_cache, bool):
            raise ConfigError(
                f"shared_cache must be None or a bool, got {self.shared_cache!r}"
            )
        if self.shared_cache is True and self.cache_dir is None:
            raise ConfigError(
                "shared_cache=True requires cache_dir (a memory-only cache "
                "cannot be shared across processes)"
            )

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
