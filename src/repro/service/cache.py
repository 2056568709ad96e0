"""Content-addressed outline cache (the build service's memo layer).

``outline_group`` is a pure function of its payload: the candidate
methods (code bytes, relocations, metadata, StackMaps), the hot-method
mask restricted to those methods, the ``min_length`` /
``max_length`` / ``min_saved`` thresholds, and the repeat-mining
engine.  The cache therefore keys
each group result on a SHA-256 over exactly those inputs — unchanged
methods across rebuilds, and identical method groups across different
apps in a batch, hit the cache instead of rebuilding suffix trees.

Key properties:

* **Content addressing.**  The key hashes every field that can affect
  the result (per-method fingerprints include the full side tables, not
  just instruction bytes, because rewritten methods embed them).  The
  partition's ``symbol_prefix`` is deliberately *excluded*: results are
  stored with the prefix they were computed under and re-branded on a
  hit, so the same group content shared between, say, round 0 and a
  different partition index still hits.
* **Two tiers.**  A bounded in-memory LRU (``memory_entries``) fronts
  an optional on-disk store (``directory``): one file per entry,
  sharded by the first two hex digits of the key, written atomically.
* **Size-bounded LRU eviction.**  The disk store is capped at
  ``max_bytes``; when a store pushes it over, least-recently-used
  entries (by access time — hits re-touch their file) are deleted until
  it fits.
* **Crash safety.**  A corrupt or truncated entry is treated as a miss
  and deleted; the cache never fails a build.
* **Multi-process safety.**  Any number of processes may read, write
  and evict one directory concurrently: writers stage entries under
  per-writer temp names (pid + sequence) and publish with an atomic
  ``os.replace``; a reader racing an eviction sees a plain miss (the
  post-read ``os.utime`` recency refresh tolerates the file vanishing);
  eviction scans tolerate entries deleted underneath them and sweep
  temp files abandoned by crashed writers.  :class:`SharedCacheSpec` is
  the picklable recipe group-executor children use to open their own
  handle on the supervisor's directory — the read-through / write-back
  layer behind ``ServiceConfig(shared_cache=...)``.

Counters (`service.cache.*`) feed the observability registry whenever a
tracer is active — split by tier (``disk_hits`` vs ``memory_hits``) and
by process role (``supervisor``/``worker``); ``docs/service.md``
documents the semantics.  The disk tier exposes deterministic
``CALIBRO_FAULTS`` sites (``cache.read`` / ``cache.write`` /
``cache.evict``) that always degrade to a miss or a skipped write,
never a failed build.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import os
import pickle
import threading
import time
import weakref
from collections import OrderedDict
from dataclasses import dataclass, replace as dc_replace
from pathlib import Path

from repro import observability as obs
from repro.compiler.compiled import CompiledMethod
from repro.core.errors import ServiceError
from repro.core.outline import GroupOutlineResult
from repro.service import faults

__all__ = [
    "CacheStats",
    "OutlineCache",
    "SharedCacheSpec",
    "fingerprint_methods",
    "outline_payload_key",
]

#: Bump when the pickle payload or key derivation changes shape —
#: entries from other versions are ignored (treated as misses).
#: v2: the payload grew the repeat-mining engine name (key material).
#: v3: the store also holds merge plans (:mod:`repro.core.merge`) and
#: configs carry the merging-pass fields in their key material.
_FORMAT_VERSION = 3

#: Default disk budget: plenty for a CI fleet of generated apps while
#: still exercising eviction in long batch runs.
DEFAULT_MAX_BYTES = 64 * 1024 * 1024

#: Which process opened this handle — key material for the per-role
#: counter split (`service.cache.supervisor_hits` & co.).
CACHE_ROLES = ("supervisor", "worker")

#: A ``*.tmp`` staging file older than this is an orphan from a crashed
#: writer and is swept during eviction scans; younger temp files may be
#: a live writer's in-flight entry and are left alone.
_TMP_MAX_AGE_SECONDS = 300.0

#: Per-process sequence for temp-file names: two threads of one process
#: (the async front door runs builds on executor threads) must not
#: share a staging path any more than two processes may.
_TMP_SEQ = itertools.count()


def _hash_int(h, value: int) -> None:
    h.update(value.to_bytes(8, "little", signed=True))


def _hash_str(h, value: str) -> None:
    raw = value.encode("utf-8")
    _hash_int(h, len(raw))
    h.update(raw)


def _hash_method(h, method: CompiledMethod) -> None:
    """Feed every result-affecting field of one method into ``h``.

    The byte stream per method is memoized (keyed by object identity,
    evicted by a weakref finalizer) — an incremental build fingerprints
    the same spliced :class:`CompiledMethod` objects build after build,
    and the field walk was a measurable slice of the delta wall time.
    Sound because compiled methods are immutable by convention once
    codegen returns; the memo replays the *exact* byte sequence the
    walk would produce, so keys are unchanged.
    """
    ident = id(method)
    stream = _method_stream_memo.get(ident)
    if stream is None:
        sink = _ByteSink()
        _hash_method_fields(sink, method)
        stream = sink.getvalue()
        _method_stream_memo[ident] = stream
        weakref.finalize(method, _method_stream_memo.pop, ident, None)
    h.update(stream)


_method_stream_memo: dict[int, bytes] = {}


class _ByteSink:
    """Duck-typed hash target that records the update stream."""

    __slots__ = ("_parts",)

    def __init__(self) -> None:
        self._parts: list[bytes] = []

    def update(self, raw) -> None:
        self._parts.append(bytes(raw))

    def getvalue(self) -> bytes:
        return b"".join(self._parts)


def _hash_method_fields(h, method: CompiledMethod) -> None:
    """The full field walk behind :func:`_hash_method`.

    The rewritten method a cached result carries reproduces the input
    method's name, relocations, metadata, StackMaps, frame size and
    callees — so all of them are key material, not just the code.
    """
    _hash_str(h, method.name)
    _hash_int(h, len(method.code))
    h.update(method.code)
    _hash_int(h, method.frame_size)
    _hash_int(h, len(method.callees))
    for callee in method.callees:
        _hash_str(h, callee)
    _hash_int(h, len(method.relocations))
    for reloc in method.relocations:
        _hash_int(h, reloc.offset)
        _hash_str(h, reloc.kind)
        _hash_str(h, reloc.symbol)
        _hash_int(h, reloc.addend)
    meta = method.metadata
    if meta is None:
        _hash_int(h, -1)
    else:
        _hash_int(h, meta.code_size)
        _hash_int(h, 2 if meta.has_indirect_jump else 0)
        _hash_int(h, 2 if meta.is_native else 0)
        _hash_int(h, len(meta.embedded_data))
        for extent in meta.embedded_data:
            _hash_int(h, extent.start)
            _hash_int(h, extent.size)
        _hash_int(h, len(meta.pc_relative))
        for ref in meta.pc_relative:
            _hash_int(h, ref.offset)
            _hash_int(h, ref.target)
        _hash_int(h, len(meta.terminators))
        for off in meta.terminators:
            _hash_int(h, off)
        _hash_int(h, len(meta.slowpaths))
        for slow in meta.slowpaths:
            _hash_int(h, slow.start)
            _hash_int(h, slow.end)
    maps = method.stackmaps
    if maps is None:
        _hash_int(h, -1)
    else:
        _hash_int(h, len(maps.entries))
        for entry in maps.entries:
            _hash_int(h, entry.native_pc)
            _hash_int(h, entry.dex_pc)
            _hash_int(h, entry.live_vregs)
            _hash_str(h, entry.kind)


def fingerprint_methods(methods) -> str:
    """SHA-256 hex fingerprint of a method list (order-sensitive).

    Used by the service's compile cache; group keys use the same
    per-method hashing via :meth:`OutlineCache.group_key`.
    """
    h = hashlib.sha256()
    _hash_int(h, _FORMAT_VERSION)
    _hash_int(h, len(methods))
    for method in methods:
        _hash_method(h, method)
    return h.hexdigest()


def _rebrand_name(name: str, old: str, new: str) -> str:
    return new + name[len(old):] if name.startswith(old) else name


def _rebrand_method(method: CompiledMethod, old: str, new: str) -> CompiledMethod:
    """Rename every occurrence of the outlined-function prefix inside one
    method (its own name, its relocation targets, its callees)."""
    changed = False
    name = _rebrand_name(method.name, old, new)
    changed |= name != method.name
    relocations = []
    for reloc in method.relocations:
        symbol = _rebrand_name(reloc.symbol, old, new)
        changed |= symbol != reloc.symbol
        relocations.append(dc_replace(reloc, symbol=symbol) if symbol != reloc.symbol else reloc)
    callees = tuple(_rebrand_name(c, old, new) for c in method.callees)
    changed |= callees != method.callees
    metadata = method.metadata
    if metadata is not None and metadata.method_name != name:
        metadata = dc_replace(metadata, method_name=name)
        changed = True
    stackmaps = method.stackmaps
    if stackmaps is not None and stackmaps.method_name != name:
        stackmaps = dc_replace(stackmaps, method_name=name)
        changed = True
    if not changed:
        return method
    return CompiledMethod(
        name=name,
        code=method.code,
        relocations=relocations,
        metadata=metadata,
        stackmaps=stackmaps,
        frame_size=method.frame_size,
        callees=callees,
    )


def _rebrand_result(
    result: GroupOutlineResult, old_prefix: str, new_prefix: str
) -> GroupOutlineResult:
    """Re-render a cached result under a different symbol prefix.

    Outlined-function names are ``f"{prefix}${index}"`` with the index
    assigned in deterministic decision order, so a pure prefix swap
    reproduces exactly what a fresh ``outline_group`` call with the new
    prefix would have emitted.
    """
    if old_prefix == new_prefix:
        return result
    old, new = old_prefix + "$", new_prefix + "$"
    return GroupOutlineResult(
        rewritten={
            index: _rebrand_method(m, old, new) for index, m in result.rewritten.items()
        },
        outlined=[_rebrand_method(m, old, new) for m in result.outlined],
        stats=result.stats,
        decisions=[
            dc_replace(d, name=_rebrand_name(d.name, old, new)) for d in result.decisions
        ],
    )


@dataclass
class CacheStats:
    """Hit/miss bookkeeping for one :class:`OutlineCache`."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    #: Hits served from the on-disk tier (a subset of ``hits``).
    disk_hits: int = 0
    #: Disk entries deleted by LRU eviction.
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict[str, object]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "disk_hits": self.disk_hits,
            "evictions": self.evictions,
            "hit_rate": round(self.hit_rate, 4),
        }


class OutlineCache:
    """Content-addressed store for ``outline_group`` results (plus the
    service's generic content-addressed objects, e.g. compile results).

    ``directory=None`` keeps the cache purely in memory;
    ``memory_entries`` bounds the in-memory LRU tier (spill-overs stay
    on disk when a directory is configured).
    """

    def __init__(
        self,
        directory: str | os.PathLike | None = None,
        *,
        max_bytes: int = DEFAULT_MAX_BYTES,
        memory_entries: int = 256,
        role: str = "supervisor",
    ) -> None:
        if max_bytes < 1:
            raise ServiceError("cache max_bytes must be >= 1")
        if memory_entries < 1:
            raise ServiceError("cache memory_entries must be >= 1")
        if role not in CACHE_ROLES:
            raise ServiceError(
                f"cache role must be one of {CACHE_ROLES}, got {role!r}"
            )
        self.directory = Path(directory) if directory is not None else None
        self.max_bytes = max_bytes
        self.memory_entries = memory_entries
        self.role = role
        self.stats = CacheStats()
        self._memory: OrderedDict[str, object] = OrderedDict()
        # The async front door runs builds on executor threads sharing
        # one service cache; OrderedDict reorder-on-hit is not atomic.
        self._lock = threading.RLock()
        if self.directory is not None:
            try:
                self.directory.mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                raise ServiceError(f"unusable cache directory: {exc}") from exc

    # -- group results ------------------------------------------------------

    @staticmethod
    def group_key(payload) -> str:
        """The content address of one outline payload (see
        :data:`repro.core.parallel.OutlinePayload`); the symbol prefix is
        excluded — see the module docstring.

        The repeat-mining ``engine`` *is* key material even though every
        engine produces identical bytes: keying per engine keeps each
        backend's results verifiable on their own (a cross-engine hit
        would mask an engine divergence instead of surfacing it), and
        the guarantee is cheap — one rebuild per engine switch.

        This key doubles as the **chunk node key** in the build
        dependency graph (:mod:`repro.service.graph`): a group node
        whose key is unchanged splices its outlined chunk from here
        instead of re-mining.
        """
        candidates, hot_names, min_length, max_length, min_saved, engine, _prefix = (
            payload
        )
        h = hashlib.sha256()
        _hash_int(h, _FORMAT_VERSION)
        _hash_int(h, min_length)
        _hash_int(h, max_length)
        _hash_int(h, min_saved)
        _hash_str(h, engine)
        _hash_int(h, len(candidates))
        for index, method in candidates:
            _hash_int(h, index)
            _hash_int(h, 1 if method.name in hot_names else 0)
            _hash_method(h, method)
        return h.hexdigest()

    def lookup_group(self, payload) -> GroupOutlineResult | None:
        """Return the cached result for ``payload`` (re-branded to its
        symbol prefix), or ``None`` on a miss."""
        return self.lookup_chunk(self.group_key(payload), payload[6])

    def store_group(self, payload, result: GroupOutlineResult) -> None:
        self.store_chunk(self.group_key(payload), payload[6], result)

    # -- chunk access by node key (the build-graph splice path) -------------

    def lookup_chunk(self, key: str, prefix: str) -> GroupOutlineResult | None:
        """Fetch an outlined chunk by its graph node key, re-branded to
        ``prefix``.

        Chunks are stored under the prefix they were *computed* with,
        which is excluded from the key — so any keyed access (graph
        nodes splicing cached chunks included) must re-brand on the way
        out, exactly like :meth:`lookup_group` does.  Returning the
        stored tuple unrebranded would leak another build's symbol
        prefix into this build's OAT image.
        """
        entry = self._get(key)
        if entry is None:
            return None
        stored_prefix, result = entry
        return _rebrand_result(result, stored_prefix, prefix)

    def store_chunk(self, key: str, prefix: str, result: GroupOutlineResult) -> None:
        """Store an outlined chunk under its graph node key, remembering
        the symbol prefix it was computed with (the re-brand origin)."""
        self._put(key, (prefix, result))

    # -- generic content-addressed objects ----------------------------------

    def lookup_object(self, key: str):
        """Fetch an arbitrary cached object (the service's compile
        cache); ``None`` on a miss."""
        return self._get(key)

    def store_object(self, key: str, value) -> None:
        self._put(key, value)

    # -- the two tiers ------------------------------------------------------

    def _get(self, key: str):
        t0 = time.perf_counter()
        try:
            with self._lock:
                if key in self._memory:
                    self._memory.move_to_end(key)
                    self.stats.hits += 1
                    obs.counter_add("service.cache.hits")
                    obs.counter_add("service.cache.memory_hits")
                    self._count_role_hit()
                    return self._memory[key]
            value = self._disk_read(key)
            if value is not None:
                self.stats.hits += 1
                self.stats.disk_hits += 1
                obs.counter_add("service.cache.hits")
                obs.counter_add("service.cache.disk_hits")
                self._count_role_hit()
                self._memory_put(key, value)
                return value
            self.stats.misses += 1
            obs.counter_add("service.cache.misses")
            self._count_role_miss()
            return None
        finally:
            obs.histogram_observe(
                "service.cache.lookup_seconds", time.perf_counter() - t0
            )

    def _put(self, key: str, value) -> None:
        self.stats.stores += 1
        obs.counter_add("service.cache.stores")
        self._count_role_store()
        self._memory_put(key, value)
        self._disk_write(key, value)

    # Per-role counter split (`docs/observability.md`).  One static
    # string literal per branch — the docs-coverage test reads names
    # out of the source, so they must never be assembled dynamically.

    def _count_role_hit(self) -> None:
        if self.role == "worker":
            obs.counter_add("service.cache.worker_hits")
        else:
            obs.counter_add("service.cache.supervisor_hits")

    def _count_role_miss(self) -> None:
        if self.role == "worker":
            obs.counter_add("service.cache.worker_misses")
        else:
            obs.counter_add("service.cache.supervisor_misses")

    def _count_role_store(self) -> None:
        if self.role == "worker":
            obs.counter_add("service.cache.worker_stores")
        else:
            obs.counter_add("service.cache.supervisor_stores")

    def _memory_put(self, key: str, value) -> None:
        with self._lock:
            self._memory[key] = value
            self._memory.move_to_end(key)
            while len(self._memory) > self.memory_entries:
                self._memory.popitem(last=False)

    def clear(self) -> None:
        """Drop both tiers (a fresh-start knob for tests and tooling).

        Resets :attr:`stats` and re-emits the ``service.cache.bytes``
        gauge as 0 — a cleared cache must not keep reporting the old
        tier size (or the old hit rate) as live state.
        """
        with self._lock:
            self._memory.clear()
        for path in self._entry_files():
            with contextlib.suppress(OSError):
                path.unlink(missing_ok=True)
        if self.directory is not None and self.directory.exists():
            for path in self.directory.glob("??/*.tmp"):
                with contextlib.suppress(OSError):
                    path.unlink(missing_ok=True)
        self.stats = CacheStats()
        obs.gauge_set("service.cache.bytes", 0)

    def shared_spec(self) -> "SharedCacheSpec | None":
        """The picklable recipe a child process needs to open its own
        handle on this cache's directory (``None`` for a memory-only
        cache — there is nothing cross-process to share)."""
        if self.directory is None:
            return None
        return SharedCacheSpec(
            directory=str(self.directory),
            max_bytes=self.max_bytes,
            # Children keep a small memory tier: the disk directory is
            # the shared source of truth, the per-process LRU only
            # shields a chunk's own re-lookups.
            memory_entries=min(self.memory_entries, 64),
        )

    # -- the disk tier ------------------------------------------------------

    def _entry_path(self, key: str) -> Path:
        assert self.directory is not None
        return self.directory / key[:2] / f"{key}.bin"

    def _entry_files(self) -> list[Path]:
        if self.directory is None or not self.directory.exists():
            return []
        return [p for p in self.directory.glob("??/*.bin") if p.is_file()]

    def disk_bytes(self) -> int:
        """Current size of the on-disk tier (entries deleted underneath
        the scan by a concurrent evictor simply don't count)."""
        total = 0
        for p in self._entry_files():
            try:
                total += p.stat().st_size
            except OSError:
                continue
        return total

    def _disk_read(self, key: str):
        if self.directory is None:
            return None
        try:
            faults.maybe_inject("cache.read", key[:12])
        except ServiceError:
            return None  # an injected read fault is a plain miss
        path = self._entry_path(key)
        try:
            with open(path, "rb") as fh:
                payload = pickle.load(fh)
            if payload.get("version") != _FORMAT_VERSION:
                raise ValueError("cache entry format mismatch")
        except FileNotFoundError:
            return None
        except Exception:
            # Corrupt/truncated/stale entry: self-heal by dropping it.
            with contextlib.suppress(OSError):
                path.unlink(missing_ok=True)
            return None
        try:
            os.utime(path)  # refresh LRU recency for the eviction scan
        except OSError:
            # A concurrent evictor deleted the entry between the read
            # and the touch; the value is already in hand, so the lost
            # recency refresh is a no-op, not a failed lookup.
            pass
        return payload["value"]

    def _tmp_path(self, key: str) -> Path:
        """A staging path unique to this writer: two processes (or two
        front-door threads) racing to publish the same key must never
        interleave bytes into one temp file."""
        return self._entry_path(key).parent / (
            f"{key}.{os.getpid()}.{next(_TMP_SEQ)}.tmp"
        )

    def _disk_write(self, key: str, value) -> None:
        if self.directory is None:
            return
        try:
            faults.maybe_inject("cache.write", key[:12])
        except ServiceError:
            return  # an injected write fault skips the store
        path = self._entry_path(key)
        tmp = self._tmp_path(key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            with open(tmp, "wb") as fh:
                pickle.dump({"version": _FORMAT_VERSION, "value": value}, fh)
            os.replace(tmp, path)
        except OSError:
            # Disk full / permissions / directory torn down underneath
            # us: the entry is simply not cached.  Drop the stage file
            # so a failed write cannot strand a growing orphan.
            with contextlib.suppress(OSError):
                tmp.unlink(missing_ok=True)
            return
        self._evict(key)

    def _sweep_orphan_tmps(self) -> None:
        """Delete staging files abandoned by crashed writers.  Only
        stale ones go — a live writer's in-flight temp file is seconds
        old, an orphan is minutes old."""
        if self.directory is None or not self.directory.exists():
            return
        cutoff = time.time() - _TMP_MAX_AGE_SECONDS
        for path in self.directory.glob("??/*.tmp"):
            try:
                if path.stat().st_mtime < cutoff:
                    path.unlink()
            except OSError:
                continue  # a concurrent sweeper (or the writer) got it

    def _evict(self, key: str = "") -> None:
        """Delete least-recently-used entries until the disk tier fits
        ``max_bytes`` again.  Concurrent evictors are tolerated: an
        entry deleted underneath the scan still counts toward the bytes
        freed, it just isn't double-counted as *our* eviction."""
        try:
            faults.maybe_inject("cache.evict", key[:12])
        except ServiceError:
            return  # an injected evict fault skips this pass
        self._sweep_orphan_tmps()
        entries = []
        for p in self._entry_files():
            try:
                st = p.stat()
            except OSError:
                continue  # deleted mid-scan by a concurrent evictor
            entries.append((st.st_mtime, st.st_size, p))
        total = sum(size for _, size, _ in entries)
        if total <= self.max_bytes:
            obs.gauge_set("service.cache.bytes", total)
            return
        entries.sort(key=lambda e: (e[0], e[2].name))
        for _, size, path in entries:
            if total <= self.max_bytes:
                break
            try:
                path.unlink()
            except FileNotFoundError:
                total -= size  # a concurrent evictor freed it first
                continue
            except OSError:
                continue
            total -= size
            self.stats.evictions += 1
            obs.counter_add("service.cache.evictions")
        obs.gauge_set("service.cache.bytes", total)


# -- cross-process sharing ---------------------------------------------------

#: Handles opened from a :class:`SharedCacheSpec`, one per
#: ``(directory, role)`` per process.  Keyed with the opening pid so a
#: fork-started child never reuses the handle object (and its lock /
#: stats) it inherited from the parent's module state.
_SHARED_HANDLES: dict[tuple[str, str], tuple[int, "OutlineCache"]] = {}


@dataclass(frozen=True)
class SharedCacheSpec:
    """The picklable recipe for opening the shared disk cache from any
    process.

    A live :class:`OutlineCache` cannot cross a process boundary (it
    owns a lock, live stats, an open directory handle); this spec can.
    The supervisor derives one from its cache
    (:meth:`OutlineCache.shared_spec`), the group executor ships it to
    its children with every dispatch unit, and each child opens — and
    process-caches — its own handle on the same directory.  Disk-tier
    atomicity (per-writer temp names + ``os.replace``) is what makes
    the concurrent handles sound.
    """

    directory: str
    max_bytes: int = DEFAULT_MAX_BYTES
    memory_entries: int = 64

    def open(self, role: str = "worker") -> OutlineCache:
        """This process's handle for ``role`` (opened once, then
        reused — a child serves every unit it runs through one
        handle)."""
        pid = os.getpid()
        key = (self.directory, role)
        cached = _SHARED_HANDLES.get(key)
        if cached is not None and cached[0] == pid:
            return cached[1]
        handle = OutlineCache(
            self.directory,
            max_bytes=self.max_bytes,
            memory_entries=self.memory_entries,
            role=role,
        )
        _SHARED_HANDLES[key] = (pid, handle)
        return handle

    def lookup_or_compute(self, worker, payload) -> tuple[object, bool | None]:
        """``worker(payload)``, read through and written back to the
        shared disk cache from a group-executor child.

        Returns ``(result, hit)``.  A group mined by any process of any
        tenant is a hit (re-branded to this payload's symbol prefix);
        payloads that are not outline-shaped go straight to ``worker``
        and report ``hit=None``.
        """
        key, prefix = outline_payload_key(payload)
        if key is None:
            return worker(payload), None
        cache = self.open()
        hit = cache.lookup_chunk(key, prefix)
        if hit is not None:
            return hit, True
        result = worker(payload)
        cache.store_chunk(key, prefix, result)
        return result, False


def outline_payload_key(payload) -> tuple[str | None, str | None]:
    """``(group key, symbol prefix)`` of an outline payload, or
    ``(None, None)`` when the payload is not outline-shaped.

    The group executor is generic (tests drive it with plain ints), so
    the shared-cache layer duck-checks the
    :data:`~repro.core.parallel.OutlinePayload` shape before keying:
    a 7-tuple with integer thresholds, a string engine and a string
    symbol prefix.  Anything else passes through uncached.
    """
    if (
        isinstance(payload, tuple)
        and len(payload) == 7
        and isinstance(payload[5], str)
        and isinstance(payload[6], str)
        and all(isinstance(payload[i], int) for i in (2, 3, 4))
    ):
        try:
            return OutlineCache.group_key(payload), payload[6]
        except Exception:
            return None, None
    return None, None
