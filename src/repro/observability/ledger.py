"""The build ledger — durable per-build metrics across runs.

A single trace sees one build; the repo's evaluation story (Tables 4-7)
is a *trajectory* — size reduction and build-time overhead tracked
across configurations and across time.  :class:`BuildLedger` is the
durable half of that: an append-only JSONL file where every build
deposits one schema-versioned :class:`LedgerEntry` (config, label,
text size before/after, reduction, wall time, cache traffic and
a digest of the full trace).  ``calibro build --ledger`` and
:class:`~repro.service.BuildService` write it; ``calibro history``
summarizes it and ``calibro compare`` diffs entries for regression
gating (see :mod:`repro.observability.diff`).

JSONL because appends are atomic-enough (one ``write`` per line, no
read-modify-write races between concurrent builders) and torn trailing
lines — a crashed or ENOSPC-interrupted writer — damage only
themselves; :meth:`BuildLedger.entries` skips and counts them
(``BuildLedger.corrupt_lines``) rather than refusing the file.  The
append path carries a ``CALIBRO_FAULTS`` site (``ledger``) so those
failure modes stay rehearsed in tests.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterator

from repro.core.errors import CalibroError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (core -> obs)
    from repro.core.pipeline import CalibroBuild
    from repro.observability.trace import Trace

__all__ = [
    "LEDGER_SCHEMA_VERSION",
    "BuildLedger",
    "LedgerEntry",
    "entry_from_build",
    "trace_digest",
]

#: Version of one serialized ledger record.  Bump on any key addition,
#: removal or meaning change; readers accept records up to this version
#: (missing = v1) and refuse newer ones with a clear error.
#: v2 added the optional ``graph`` field (incremental delta accounting).
#: v3 added the optional ``merge`` field (global function merging) and
#: folds its saved bytes into ``text_size_before``.
#: v4 added ``trace_id`` — the distributed-trace id of the build, so a
#: ledger regression joins back to its full trace document.
#: v5 removed ``engine`` (one repeat miner remains); the ``engine`` key
#: of v1–v4 records is ignored on load.
LEDGER_SCHEMA_VERSION = 5


def trace_digest(trace: "Trace | None") -> str:
    """SHA-256 over the canonical JSON of a trace (``""`` without one).

    The digest ties a ledger entry back to the full trace document it
    summarizes: two entries with equal digests came from bit-identical
    measurements, without the ledger having to embed the whole tree.
    """
    if trace is None:
        return ""
    canonical = json.dumps(trace.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class LedgerEntry:
    """One build's durable record (one JSONL line)."""

    #: Configuration name (e.g. ``CTO+LTBO+PlOpti``).
    config: str
    #: App label (input filename stem for CLI builds, ``BuildRequest.
    #: label`` for service builds).
    label: str = ""
    #: .text bytes the candidate set occupied before LTBO.2 ran
    #: (final size + bytes saved; equals ``text_size_after`` when LTBO
    #: was off or found nothing).
    text_size_before: int = 0
    #: Final linked .text size in bytes.
    text_size_after: int = 0
    #: Wall seconds for the whole build.
    wall_seconds: float = 0.0
    #: Outline/compile cache lookups served during this build.
    cache_hits: int = 0
    #: Cache lookups that had to compute.
    cache_misses: int = 0
    #: SHA-256 of the build's trace document (see :func:`trace_digest`);
    #: empty when the build ran without observability.
    trace_digest: str = ""
    #: Distributed-trace id (32 hex chars) of the build's trace —
    #: ``calibro history``/``compare`` use it to join a regression to
    #: the exported trace/Chrome documents; empty without a tracer.
    trace_id: str = ""
    #: Unix seconds when the entry was recorded.
    timestamp: float = 0.0
    schema_version: int = LEDGER_SCHEMA_VERSION
    #: Free-form extras (git sha, host, scale, ...) — round-tripped
    #: verbatim, never interpreted by the ledger itself.
    meta: dict[str, Any] = field(default_factory=dict)
    #: Incremental delta accounting (``GraphDelta.as_dict()`` — nodes
    #: reused/rebuilt, full-rebuild flag, delta seconds); empty for
    #: non-incremental builds.  ``calibro compare`` gates on it.
    graph: dict[str, Any] = field(default_factory=dict)
    #: Global-function-merging accounting (``MergeStats.as_dict()`` —
    #: functions folded/merged, groups, saved bytes); empty when the
    #: merge pass did not run.  ``calibro compare`` gates on
    #: ``merge.saved_bytes``.
    merge: dict[str, Any] = field(default_factory=dict)

    @property
    def reduction(self) -> float:
        """Fractional size reduction (0.1919 = the paper's 19.19%)."""
        if self.text_size_before <= 0:
            return 0.0
        return 1.0 - self.text_size_after / self.text_size_before

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "schema_version": self.schema_version,
            "config": self.config,
            "label": self.label,
            "text_size_before": self.text_size_before,
            "text_size_after": self.text_size_after,
            "reduction": round(self.reduction, 6),
            "wall_seconds": round(self.wall_seconds, 6),
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "trace_digest": self.trace_digest,
            "trace_id": self.trace_id,
            "timestamp": round(self.timestamp, 3),
        }
        if self.meta:
            out["meta"] = self.meta
        if self.graph:
            out["graph"] = self.graph
        if self.merge:
            out["merge"] = self.merge
        return out

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "LedgerEntry":
        if not isinstance(data, dict):
            raise CalibroError(
                f"ledger record must be a mapping, got {type(data).__name__}"
            )
        version = data.get("schema_version", 1)
        if not isinstance(version, int) or version < 1:
            raise CalibroError(
                f"ledger record has an invalid schema_version: {version!r}"
            )
        if version > LEDGER_SCHEMA_VERSION:
            raise CalibroError(
                f"ledger record version {version} is newer than this build "
                f"understands (max {LEDGER_SCHEMA_VERSION})"
            )
        return cls(
            config=str(data.get("config", "")),
            label=str(data.get("label", "")),
            text_size_before=int(data.get("text_size_before", 0)),
            text_size_after=int(data.get("text_size_after", 0)),
            wall_seconds=float(data.get("wall_seconds", 0.0)),
            cache_hits=int(data.get("cache_hits", 0)),
            cache_misses=int(data.get("cache_misses", 0)),
            trace_digest=str(data.get("trace_digest", "")),
            trace_id=str(data.get("trace_id", "")),
            timestamp=float(data.get("timestamp", 0.0)),
            schema_version=version,
            meta=dict(data.get("meta", {})),
            graph=dict(data.get("graph", {})),
            merge=dict(data.get("merge", {})),
        )


def entry_from_build(
    build: "CalibroBuild",
    *,
    label: str = "",
    wall_seconds: float | None = None,
    cache_hits: int = 0,
    cache_misses: int = 0,
    timestamp: float | None = None,
    meta: dict[str, Any] | None = None,
    graph: dict[str, Any] | None = None,
) -> LedgerEntry:
    """Distill one :class:`~repro.core.pipeline.CalibroBuild` into its
    ledger record.  ``wall_seconds`` defaults to the build's own total;
    service callers pass their (cache-lookup-inclusive) wall time and,
    on incremental builds, the graph delta dict (``graph``)."""
    bytes_saved = sum(s.bytes_saved for s in build.outline_stats)
    if build.merge is not None:
        bytes_saved += build.merge.stats.saved_bytes
    return LedgerEntry(
        config=build.config.name,
        label=label,
        text_size_before=build.text_size + bytes_saved,
        text_size_after=build.text_size,
        wall_seconds=build.build_seconds if wall_seconds is None else wall_seconds,
        cache_hits=cache_hits,
        cache_misses=cache_misses,
        trace_digest=trace_digest(build.trace),
        trace_id=(
            str(build.trace.meta.get("trace_id", ""))
            if build.trace is not None
            else ""
        ),
        timestamp=time.time() if timestamp is None else timestamp,
        meta=dict(meta or {}),
        graph=dict(graph or {}),
        merge=build.merge.stats.as_dict() if build.merge is not None else {},
    )


class BuildLedger:
    """Append-only JSONL store of :class:`LedgerEntry` records.

    The file (and parents) are created on first append.  Reading is
    tolerant of corrupt *trailing* lines — a torn or ENOSPC-truncated
    append damages only the records no complete record follows; those
    lines are skipped and counted in :attr:`corrupt_lines` (plus the
    ``ledger.corrupt_lines`` counter) instead of poisoning the whole
    file.  A corrupt line *followed by* a parseable record still raises
    :class:`~repro.core.errors.CalibroError` with its line number:
    interior damage means something other than a crashed appender wrote
    the file, and silently dropping a mid-history record would skew
    every trajectory computed over it.  Any parseable record from a
    newer schema also raises.

    ``append`` carries a ``CALIBRO_FAULTS`` injection site
    (``ledger:<label-or-config>``) so tests can rehearse exactly these
    failure modes.
    """

    def __init__(self, path: str | os.PathLike):
        self.path = Path(path)
        #: Corrupt trailing lines skipped by the most recent read.
        self.corrupt_lines = 0

    def append(self, entry: LedgerEntry) -> None:
        from repro.service.faults import maybe_inject

        maybe_inject("ledger", entry.label or entry.config)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        line = json.dumps(entry.to_dict(), sort_keys=True, separators=(",", ":"))
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")

    def __iter__(self) -> Iterator[LedgerEntry]:
        if not self.path.exists():
            return
        with open(self.path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        parsed: list[tuple[int, Any]] = []  # (line index, payload | None)
        last_good = -1
        for index, line in enumerate(lines):
            if not line.strip():
                continue
            try:
                data = json.loads(line)
            except json.JSONDecodeError:
                parsed.append((index, None))
            else:
                parsed.append((index, data))
                last_good = index
        skipped = 0
        for index, data in parsed:
            if data is None:
                if index < last_good:
                    raise CalibroError(
                        f"{self.path}:{index + 1}: not a JSON ledger record"
                    )
                skipped += 1  # torn/truncated trailing write
        self.corrupt_lines = skipped
        if skipped:
            from repro import observability as obs

            obs.counter_add("ledger.corrupt_lines", skipped)
        for _index, data in parsed:
            if data is not None:
                yield LedgerEntry.from_dict(data)

    def entries(self) -> list[LedgerEntry]:
        return list(self)

    def last(
        self, *, config: str | None = None, label: str | None = None
    ) -> LedgerEntry | None:
        """Most recent entry, optionally restricted to a config/label."""
        found = None
        for entry in self:
            if config is not None and entry.config != config:
                continue
            if label is not None and entry.label != label:
                continue
            found = entry
        return found

    def configs(self) -> list[str]:
        """Distinct config names, in first-seen order."""
        seen: dict[str, None] = {}
        for entry in self:
            seen.setdefault(entry.config, None)
        return list(seen)
