"""The disk cache under true concurrency: many processes, one directory.

The shared-cache layer leans entirely on the disk tier's multi-process
invariants — unique per-writer staging names, atomic publish, races
degrading to misses, orphan-tmp sweeping, self-healing reads.  This
suite holds each invariant in isolation (with the race simulated
deterministically) and then all of them at once: concurrent writer,
reader and eviction-pressure *processes* hammering one directory, with
and without cache-site faults armed.  No corrupt value may ever be
returned, no process may die on an unhandled exception, and the size
bound must hold once the dust settles.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import pickle
import time

import pytest

from repro import observability as obs
from repro.service import OutlineCache
from repro.service.cache import stage_path
from repro.service.faults import FaultPlan, armed

#: Uniform disk budget for the stress scenarios — small enough that the
#: workload overflows it (eviction runs concurrently with reads and
#: writes), large enough that entries survive long enough to be read.
MAX_BYTES = 60_000

VALUE_SIZE = 2_000


def _key(index: int) -> str:
    return hashlib.sha256(f"stress-{index}".encode()).hexdigest()


def _value_for(key: str) -> bytes:
    """Deterministic key → value mapping: any process can verify any
    hit without coordination."""
    seed = hashlib.sha256(key.encode()).digest()
    return (seed * (VALUE_SIZE // len(seed) + 1))[:VALUE_SIZE]


def _writer_proc(directory: str, keys: list[str], rounds: int) -> None:
    cache = OutlineCache(directory, max_bytes=MAX_BYTES, memory_entries=1)
    for _ in range(rounds):
        for key in keys:
            cache.store_object(key, _value_for(key))


def _reader_proc(directory: str, keys: list[str], rounds: int) -> None:
    cache = OutlineCache(directory, max_bytes=MAX_BYTES, memory_entries=1)
    for _ in range(rounds):
        for key in keys:
            hit = cache.lookup_object(key)
            if hit is not None and hit != _value_for(key):
                os._exit(9)  # a corrupt hit is the one unforgivable sin


def _evictor_proc(directory: str, rounds: int) -> None:
    """Eviction pressure: a tiny-budget handle whose every store runs a
    full eviction pass over everyone else's entries."""
    cache = OutlineCache(directory, max_bytes=VALUE_SIZE * 2, memory_entries=1)
    for round_index in range(rounds):
        key = hashlib.sha256(f"churn-{round_index}".encode()).hexdigest()
        cache.store_object(key, _value_for(key))


def _run_stress(tmp_path, *, plan: FaultPlan | None = None) -> None:
    keys = [_key(i) for i in range(40)]
    spawn = multiprocessing.get_context("spawn")
    procs = [
        *(
            spawn.Process(target=_writer_proc, args=(str(tmp_path), keys, 3))
            for _ in range(3)
        ),
        *(
            spawn.Process(target=_reader_proc, args=(str(tmp_path), keys, 6))
            for _ in range(3)
        ),
        *(
            spawn.Process(target=_evictor_proc, args=(str(tmp_path), 10))
            for _ in range(2)
        ),
    ]
    env_plan = plan.to_env() if plan is not None else None
    if env_plan is not None:
        os.environ["CALIBRO_FAULTS"] = env_plan
    try:
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=120)
            if proc.is_alive():
                proc.terminate()
                pytest.fail("stress process wedged")
    finally:
        if env_plan is not None:
            os.environ.pop("CALIBRO_FAULTS", None)
    assert [proc.exitcode for proc in procs] == [0] * len(procs)
    # No torn or corrupt entries survived: every key either misses or
    # round-trips its exact deterministic value.
    cache = OutlineCache(tmp_path, max_bytes=MAX_BYTES)
    for key in keys:
        hit = cache.lookup_object(key)
        assert hit is None or hit == _value_for(key)
    # One more store runs a clean eviction pass; the bound must hold.
    cache.store_object(_key(1000), _value_for(_key(1000)))
    assert cache.disk_bytes() <= MAX_BYTES


def test_concurrent_writers_readers_and_evictors(tmp_path):
    _run_stress(tmp_path)


def test_stress_survives_faults_on_every_cache_site(tmp_path):
    """With ``error`` faults firing at ~40% of cache.read / cache.write /
    cache.evict draws inside the stress children, every injection must
    degrade to a miss or a skipped pass — never an unhandled exception
    (a non-zero exit) and never a corrupt hit."""
    _run_stress(tmp_path, plan=FaultPlan(seed=11, error=0.4))


# -- the per-race unit fixes --------------------------------------------------


def test_utime_race_with_an_evictor_is_a_hit_not_an_error(tmp_path, monkeypatch):
    """Regression: the post-read LRU re-touch used to propagate
    ``FileNotFoundError`` when a concurrent evictor deleted the entry
    between the read and the ``os.utime`` — with the value already in
    hand."""
    writer = OutlineCache(tmp_path)
    writer.store_object(_key(0), b"payload")

    def _vanished(path, *args, **kwargs):
        raise FileNotFoundError(path)

    monkeypatch.setattr(os, "utime", _vanished)
    reader = OutlineCache(tmp_path)  # fresh memory tier: the read hits disk
    assert reader.lookup_object(_key(0)) == b"payload"
    assert reader.stats.disk_hits == 1


def test_staging_names_are_unique_per_writer(tmp_path):
    """Two writers (or two threads of one process) publishing the same
    key must never interleave bytes into one temp file: staging names
    carry the pid and a process-local sequence number."""
    entry = OutlineCache(tmp_path)._entry_path(_key(0))
    first = stage_path(entry)
    second = stage_path(entry)
    assert first != second
    assert f".{os.getpid()}." in first.name
    assert first.name.endswith(".tmp")


def test_failed_publish_cleans_its_staging_file(tmp_path, monkeypatch):
    cache = OutlineCache(tmp_path)

    def _disk_full(src, dst):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(os, "replace", _disk_full)
    cache.store_object(_key(1), b"payload")  # must not raise
    monkeypatch.undo()
    assert not list(tmp_path.rglob("*.tmp"))
    assert OutlineCache(tmp_path).lookup_object(_key(1)) is None


def test_eviction_sweeps_stale_orphan_tmps_only(tmp_path):
    cache = OutlineCache(tmp_path, max_bytes=MAX_BYTES)
    bucket = tmp_path / "ab"
    bucket.mkdir()
    orphan = bucket / "deadbeef.12345.0.tmp"
    orphan.write_bytes(b"abandoned by a crashed writer")
    stale = time.time() - 3600
    os.utime(orphan, (stale, stale))
    live = bucket / "deadbeef.12345.1.tmp"
    live.write_bytes(b"a live writer's in-flight entry")

    cache.store_object(_key(2), b"payload")  # store -> eviction -> sweep
    assert not orphan.exists()
    assert live.exists()


def test_corrupt_entry_unlink_tolerates_losing_the_race(tmp_path, monkeypatch):
    """Self-healing a torn entry races other readers healing the same
    entry; losing the unlink race is a plain miss."""
    cache = OutlineCache(tmp_path)
    cache.store_object(_key(3), b"payload")
    [path] = list(tmp_path.rglob("*.bin"))
    path.write_bytes(b"not a pickle")
    original_unlink = os.unlink

    def _already_healed(target, *args, **kwargs):
        original_unlink(target, *args, **kwargs)
        raise FileNotFoundError(target)

    monkeypatch.setattr(os, "unlink", _already_healed)
    assert OutlineCache(tmp_path).lookup_object(_key(3)) is None


def test_clear_resets_stats_and_the_bytes_gauge(tmp_path):
    """Regression: ``clear()`` used to leave the ``service.cache.bytes``
    gauge at its pre-clear value and keep accumulating hit-rate stats
    across the wipe."""
    with obs.tracing() as tracer:
        cache = OutlineCache(tmp_path)
        cache.store_object(_key(4), b"payload")
        assert cache.lookup_object(_key(4)) is not None
        assert tracer.gauges["service.cache.bytes"] > 0
        (tmp_path / _key(4)[:2] / "junk.tmp").write_bytes(b"orphan")
        cache.clear()
        assert tracer.gauges["service.cache.bytes"] == 0
    assert cache.stats.hits == 0 and cache.stats.stores == 0
    assert cache.stats.lookups == 0
    assert cache.disk_bytes() == 0
    assert not list(tmp_path.rglob("*.tmp"))


# -- the cache fault sites (in-parent error plans) ----------------------------


def test_read_fault_is_a_miss_and_leaves_the_entry(tmp_path):
    cache = OutlineCache(tmp_path)
    key = _key(5)
    cache.store_object(key, b"payload")
    plan = FaultPlan(
        seed=1, error=1.0, match=(f"cache.read:{key[:12]}",), in_parent=True
    )
    reader = OutlineCache(tmp_path)
    with armed(plan):
        assert reader.lookup_object(key) is None
        assert reader.stats.misses == 1
    # The injected miss must not have healed-away the good entry.
    assert reader.lookup_object(key) == b"payload"


def test_write_fault_skips_the_disk_store(tmp_path):
    key = _key(6)
    plan = FaultPlan(
        seed=1, error=1.0, match=(f"cache.write:{key[:12]}",), in_parent=True
    )
    cache = OutlineCache(tmp_path)
    with armed(plan):
        cache.store_object(key, b"payload")
    assert cache.disk_bytes() == 0
    assert OutlineCache(tmp_path).lookup_object(key) is None


def test_evict_fault_skips_one_pass_then_recovers(tmp_path):
    blob = b"x" * 2000
    first, second, third = _key(7), _key(8), _key(9)
    plan = FaultPlan(
        seed=1,
        error=1.0,
        match=(f"cache.evict:{second[:12]}",),
        in_parent=True,
    )
    cache = OutlineCache(tmp_path, max_bytes=3000, memory_entries=1)
    cache.store_object(first, blob)
    with armed(plan):
        cache.store_object(second, blob)  # over budget, eviction skipped
        assert cache.disk_bytes() > 3000
        assert cache.stats.evictions == 0
    cache.store_object(third, blob)  # next pass restores the bound
    assert cache.disk_bytes() <= 3000
    assert cache.stats.evictions >= 1


def test_faulted_entries_stay_uncorrupted(tmp_path):
    """A write fault must never publish a half-written entry: the key
    either misses or returns the exact stored pickle."""
    key = _key(10)
    plan = FaultPlan(
        seed=1, error=1.0, match=(f"cache.write:{key[:12]}",), in_parent=True
    )
    cache = OutlineCache(tmp_path)
    with armed(plan):
        cache.store_object(key, b"skipped")
    cache.store_object(key, b"landed")
    [path] = list(tmp_path.rglob("*.bin"))
    with open(path, "rb") as fh:
        assert pickle.load(fh)["value"] == b"landed"
