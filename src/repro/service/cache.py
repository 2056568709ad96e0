"""Content-addressed outline cache (the build service's memo layer).

``outline_group`` is a pure function of its payload: the candidate
methods (code bytes, relocations, metadata, StackMaps), the hot-method
mask restricted to those methods, the ``min_length`` / ``max_length`` /
``min_saved`` thresholds and the symbol prefix that names its outlined
functions.  The cache therefore keys each group result on a SHA-256
over exactly those inputs — unchanged methods across rebuilds, and
identical method groups across different apps in a batch, hit the
cache instead of being mined again.

Key properties:

* **Content addressing.**  The key hashes every input that can affect
  the result: each method enters as its
  :attr:`~repro.compiler.compiled.CompiledMethod.fingerprint`, which
  covers the full side tables, not just instruction bytes, because
  rewritten methods embed them.  The symbol prefix is key material too,
  so a hit is exactly the result a fresh ``outline_group`` call would
  return, and it is returned as stored.
* **Two tiers.**  A bounded in-memory LRU (``memory_entries``) fronts
  an optional on-disk store (``directory``): one file per entry,
  sharded by the first two hex digits of the key, written atomically.
* **Size-bounded LRU eviction without a scan per store.**  The disk
  store is capped at ``max_bytes``.  Each handle keeps the tier's byte
  total in memory (seeded by a directory scan at its first store,
  advanced by every entry it publishes) and scans again only when that
  total would pass ``max_bytes`` or it has written ``max_bytes //
  _SCAN_SHARE`` since its last scan.  Each scan deletes
  least-recently-used entries (by access time — hits re-touch their
  file) until the tier is one share below the bound.
* **Crash safety.**  A corrupt or truncated entry is treated as a miss
  and deleted; the cache never fails a build.
* **Multi-process safety.**  Any number of processes may read, write
  and evict one directory concurrently: writers stage entries under
  per-writer temp names (pid + sequence) and publish with an atomic
  ``os.replace``; a reader racing an eviction sees a plain miss (the
  post-read ``os.utime`` recency refresh tolerates the file vanishing);
  eviction scans tolerate entries deleted underneath them and sweep
  temp files abandoned by crashed writers.  That is how services and
  restarts on one directory share work; only the supervising process
  opens a cache — group-executor children compute what they are sent.

Counters (`service.cache.*`) feed the observability registry whenever a
tracer is active — split by tier (``disk_hits`` vs ``memory_hits``);
``docs/service.md`` documents the semantics.  The disk tier exposes
deterministic ``CALIBRO_FAULTS`` sites (``cache.read`` /
``cache.write`` / ``cache.evict``) that always degrade to a miss or a
skipped write, never a failed build.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import math
import os
import pickle
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path

from repro import observability as obs
from repro.core.errors import ServiceError
from repro.core.outline import GroupOutlineResult
from repro.service import faults

__all__ = ["CacheStats", "OutlineCache"]

#: Bump when the pickle payload or key derivation changes shape —
#: entries from other versions are ignored (treated as misses).
#: v2: the payload grew the repeat-mining engine name (key material).
#: v3: the store also holds merge plans (:mod:`repro.core.merge`) and
#: configs carry the merging-pass fields in their key material.
#: v4: the engine name left the payload again (one miner remains).
#: v5: group keys hash method fingerprints and the symbol prefix, and a
#: chunk entry is the bare ``GroupOutlineResult``.
_FORMAT_VERSION = 5

#: Default disk budget: plenty for a CI fleet of generated apps while
#: still exercising eviction in long batch runs.
DEFAULT_MAX_BYTES = 64 * 1024 * 1024

#: A ``*.tmp`` staging file older than this is an orphan from a crashed
#: writer and is swept during eviction scans; younger temp files may be
#: a live writer's in-flight entry and are left alone.
_TMP_MAX_AGE_SECONDS = 300.0

#: A handle rescans the disk tier once it has written this share of
#: ``max_bytes`` since its last scan (so other processes' entries show
#: up in its tracked total), and eviction frees the tier to this share
#: below the bound (so a full tier scans once per share, not per store).
_SCAN_SHARE = 8

#: Per-process sequence for staging names: two threads of one process
#: (the async front door runs builds on executor threads) must not
#: share a staging path any more than two processes may.
_TMP_SEQ = itertools.count()


def stage_path(path: Path) -> Path:
    """A staging path for *path* unique to this writer (pid + sequence):
    two processes (or two front-door threads) publishing the same file
    must never interleave bytes into, or publish, one stage file."""
    return path.with_name(f"{path.stem}.{os.getpid()}.{next(_TMP_SEQ)}.tmp")


def publish_atomically(path: Path, data: bytes) -> None:
    """Write *data* to a per-writer stage file, then ``os.replace`` it
    onto *path*: readers see the old bytes or the new ones, never a torn
    file.  On ``OSError`` the stage file is dropped (best effort, so a
    failed write cannot strand a growing orphan) and the error
    propagates."""
    tmp = stage_path(path)
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except OSError:
        with contextlib.suppress(OSError):
            tmp.unlink(missing_ok=True)
        raise


def _stale_tmp_cutoff() -> float:
    """Stage files last modified before this are crashed writers'
    orphans (see :data:`_TMP_MAX_AGE_SECONDS`)."""
    return time.time() - _TMP_MAX_AGE_SECONDS


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


class _LookupTally(threading.local):
    """One thread's lookups through one cache handle."""

    hits = 0
    misses = 0


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
    ) -> None:
        if max_bytes < 1:
            raise ServiceError("cache max_bytes must be >= 1")
        if memory_entries < 1:
            raise ServiceError("cache memory_entries must be >= 1")
        self.directory = Path(directory) if directory is not None else None
        self.max_bytes = max_bytes
        self.memory_entries = memory_entries
        self.stats = CacheStats()
        self._memory: OrderedDict[str, object] = OrderedDict()
        # The async front door runs builds on executor threads sharing
        # one service cache; OrderedDict reorder-on-hit is not atomic,
        # and neither is ``+=`` on the stats or the tracked total.
        self._lock = threading.RLock()
        # A build's lookups all run on the thread that submitted it
        # (see :meth:`thread_lookups`).
        self._thread = _LookupTally()
        # The disk tier's size as of this handle's last scan plus every
        # entry it has published since (``None`` until its first store
        # scans), and the bytes published since that scan.
        self._tracked: int | None = None
        self._unscanned = 0
        if self.directory is not None:
            try:
                self.directory.mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                raise ServiceError(f"unusable cache directory: {exc}") from exc

    # -- group results ------------------------------------------------------

    @staticmethod
    def group_key(payload) -> str:
        """The content address of one outline payload (see
        :data:`repro.core.parallel.OutlinePayload`): the thresholds, the
        symbol prefix, and each candidate's index, hot bit and
        fingerprint.

        This key doubles as the **chunk node key** in the build
        dependency graph (:mod:`repro.service.graph`): a group node
        whose key is unchanged splices its outlined chunk from here
        instead of re-mining.
        """
        candidates, hot_names, min_length, max_length, min_saved, prefix = payload
        h = hashlib.sha256(
            repr((_FORMAT_VERSION, min_length, max_length, min_saved, prefix))
            .encode("utf-8")
        )
        for index, method in candidates:
            h.update(b"%d:%d:" % (index, method.name in hot_names))
            h.update(method.fingerprint)
        return h.hexdigest()

    # -- chunk access by node key (the build-graph splice path) -------------

    def lookup_chunk(self, key: str) -> GroupOutlineResult | None:
        """Fetch an outlined chunk by its group key; ``None`` on a miss
        or when the entry under the key is not a chunk."""
        chunk = self._get(key)
        return chunk if isinstance(chunk, GroupOutlineResult) else None

    def store_chunk(self, key: str, result: GroupOutlineResult) -> None:
        """Store an outlined chunk under its group key."""
        self._put(key, result)

    # -- generic content-addressed objects ----------------------------------

    def lookup_object(self, key: str):
        """Fetch an arbitrary cached object (the service's compile
        cache); ``None`` on a miss."""
        return self._get(key)

    def store_object(self, key: str, value) -> None:
        self._put(key, value)

    # -- the two tiers ------------------------------------------------------

    def thread_lookups(self) -> tuple[int, int]:
        """``(hits, misses)`` of every lookup the calling thread has made
        through this handle.  Monotonic (:meth:`clear` does not reset
        them), so the difference across a build is that build's own
        traffic even while other threads' builds share the cache."""
        return self._thread.hits, self._thread.misses

    def _count_lookup(self, hit: bool) -> None:
        """Count one lookup service-wide and for the calling thread
        (caller holds ``self._lock``)."""
        if hit:
            self.stats.hits += 1
            self._thread.hits += 1
            obs.counter_add("service.cache.hits")
        else:
            self.stats.misses += 1
            self._thread.misses += 1
            obs.counter_add("service.cache.misses")

    def _get(self, key: str):
        t0 = time.perf_counter()
        try:
            with self._lock:
                if key in self._memory:
                    self._memory.move_to_end(key)
                    self._count_lookup(hit=True)
                    obs.counter_add("service.cache.memory_hits")
                    return self._memory[key]
            value = self._disk_read(key)
            with self._lock:
                self._count_lookup(hit=value is not None)
                if value is not None:
                    self.stats.disk_hits += 1
            if value is not None:
                obs.counter_add("service.cache.disk_hits")
                self._memory_put(key, value)
            return value
        finally:
            obs.histogram_observe(
                "service.cache.lookup_seconds", time.perf_counter() - t0
            )

    def _put(self, key: str, value) -> None:
        with self._lock:
            self.stats.stores += 1
        obs.counter_add("service.cache.stores")
        self._memory_put(key, value)
        if self.directory is not None:
            t0 = time.perf_counter()
            self._disk_write(key, value)
            obs.histogram_observe(
                "service.cache.store_seconds", time.perf_counter() - t0
            )

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
            for _, _, path in self._scan(tmp_cutoff=math.inf):
                with contextlib.suppress(OSError):
                    os.unlink(path)
            self._tracked = None  # the next store scans
            self._unscanned = 0
            self.stats = CacheStats()
        obs.gauge_set("service.cache.bytes", 0)

    # -- the disk tier ------------------------------------------------------

    def _entry_path(self, key: str) -> Path:
        assert self.directory is not None
        return self.directory / key[:2] / f"{key}.bin"

    def _scan(self, tmp_cutoff: float) -> list[tuple[float, int, str]]:
        """One ``os.scandir`` walk of the shard directories: ``(mtime,
        size, path)`` per entry, statting each once.  On the way it
        deletes stage files last modified before *tmp_cutoff*.  A file
        that fails to stat or unlink is skipped — a concurrent evictor,
        writer or healer got it first."""
        entries: list[tuple[float, int, str]] = []
        if self.directory is None:
            return entries
        try:
            shards = [d.path for d in os.scandir(self.directory)
                      if len(d.name) == 2 and d.is_dir()]
        except OSError:
            return entries  # the directory was torn down underneath us
        for shard in shards:
            try:
                with os.scandir(shard) as files:
                    for entry in files:
                        try:
                            if entry.name.endswith(".bin"):
                                st = entry.stat()
                                entries.append((st.st_mtime, st.st_size, entry.path))
                            elif (entry.name.endswith(".tmp")
                                  and entry.stat().st_mtime < tmp_cutoff):
                                os.unlink(entry.path)
                        except OSError:
                            continue
            except OSError:
                continue  # the shard vanished between the two listings
        return entries

    def disk_bytes(self) -> int:
        """Current size of the on-disk tier, by a fresh scan (entries
        deleted underneath it by a concurrent evictor simply don't
        count)."""
        return sum(size for _, size, _ in self._scan(_stale_tmp_cutoff()))

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

    def _disk_write(self, key: str, value) -> None:
        try:
            faults.maybe_inject("cache.write", key[:12])
        except ServiceError:
            return  # an injected write fault skips the store
        path = self._entry_path(key)
        data = pickle.dumps({"version": _FORMAT_VERSION, "value": value})
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            publish_atomically(path, data)
        except OSError:
            # Disk full / permissions / directory torn down underneath
            # us: the entry is simply not cached.
            return
        with self._lock:
            if self._tracked is not None:
                self._tracked += len(data)
                self._unscanned += len(data)
                if (
                    self._tracked <= self.max_bytes
                    and self._unscanned < self.max_bytes // _SCAN_SHARE
                ):
                    obs.gauge_set("service.cache.bytes", self._tracked)
                    return
            self._evict(key)

    def _evict(self, key: str) -> None:
        """Scan the disk tier and delete least-recently-used entries
        until it is ``max_bytes // _SCAN_SHARE`` below the bound, so the
        share this handle writes before its next scan still fits; the
        scanned total re-seeds the tracked one (caller holds
        ``self._lock``).  Trimming only a tier *over* the bound would
        leave it within a share of it, and the next few stores would
        scan again.  Concurrent evictors are tolerated: an entry deleted
        underneath the scan still counts toward the bytes freed, it just
        isn't double-counted as *our* eviction."""
        try:
            faults.maybe_inject("cache.evict", key[:12])
        except ServiceError:
            return  # skipped; the tracked total still asks for a scan
        obs.counter_add("service.cache.scans")
        entries = self._scan(_stale_tmp_cutoff())
        total = sum(size for _, size, _ in entries)
        floor = self.max_bytes - self.max_bytes // _SCAN_SHARE
        if total > floor:  # sort only when something goes
            entries.sort(key=lambda e: (e[0], e[2]))
            for _, size, path in entries:
                if total <= floor:
                    break
                try:
                    os.unlink(path)
                except FileNotFoundError:
                    total -= size  # a concurrent evictor freed it first
                    continue
                except OSError:
                    continue
                total -= size
                self.stats.evictions += 1
                obs.counter_add("service.cache.evictions")
        self._tracked = total
        self._unscanned = 0
        obs.gauge_set("service.cache.bytes", total)

