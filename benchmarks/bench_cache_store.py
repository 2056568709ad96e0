"""Disk-tier store cost: one store costs the same at any tier size.

An ``OutlineCache`` handle keeps its disk tier's byte total in memory
and walks the directory only at its first store, when its total would
pass ``max_bytes``, or after it has written an eighth of ``max_bytes``
since its last walk.  This benchmark shows both halves of that:

* **Existing tiers** of 500, 2,000 and 8,000 entries of ~7 KB (the size
  of a serve_edits group result): a fresh handle's first store pays the
  one full scan, and the next stores pay none — their median latency
  does not grow with the tier.
* **A tier at capacity** (4 MiB bound, the same entries): every scan
  trims the tier an eighth below the bound, so scans come once per
  eighth of the budget written, not once per store, and the bound holds
  after every store.

Only deterministic facts are asserted (scan counts and the bound);
timings are reported, not gated.
"""

from __future__ import annotations

import hashlib
import statistics
import time

from repro import observability as obs
from repro.reporting import format_table
from repro.service import OutlineCache

from _bench_util import emit

_VALUE = b"\x5a" * 7_000
_TIERS = (500, 2_000, 8_000)
_STEADY_STORES = 60
_CAPACITY_BYTES = 4 * 1024 * 1024
_CAPACITY_STORES = 1_000


def _key(tag: str, index: int) -> str:
    return hashlib.sha256(f"{tag}-{index}".encode()).hexdigest()


def _scans(tracer) -> int:
    return tracer.counters.get("service.cache.scans", 0)


def _timed_store(cache: OutlineCache, key: str) -> float:
    start = time.perf_counter()
    cache.store_object(key, _VALUE)
    return time.perf_counter() - start


def _existing_tier(directory, entries: int) -> dict[str, float]:
    """Fill a tier with ``entries`` entries, then time a fresh handle's
    first store (the full scan) and its next stores."""
    filler = OutlineCache(directory, memory_entries=1)
    for index in range(entries):
        filler.store_object(_key(f"fill{entries}", index), _VALUE)
    with obs.tracing() as tracer:
        cache = OutlineCache(directory, memory_entries=1)
        first = _timed_store(cache, _key(f"first{entries}", 0))
        first_scans = _scans(tracer)
        steady = [
            _timed_store(cache, _key(f"steady{entries}", index))
            for index in range(_STEADY_STORES)
        ]
        steady_scans = _scans(tracer) - first_scans
    return {
        "first": first,
        "first_scans": first_scans,
        "median": statistics.median(steady),
        "steady_scans": steady_scans,
    }


def _at_capacity(directory) -> dict[str, float]:
    """Store ``_CAPACITY_STORES`` entries into a 4 MiB tier, checking
    the bound after every store."""
    with obs.tracing() as tracer:
        cache = OutlineCache(directory, max_bytes=_CAPACITY_BYTES, memory_entries=1)
        times = []
        over_bound = 0
        for index in range(_CAPACITY_STORES):
            times.append(_timed_store(cache, _key("capacity", index)))
            over_bound += cache.disk_bytes() > _CAPACITY_BYTES
    entry_bytes = next(directory.rglob("*.bin")).stat().st_size
    return {
        "median": statistics.median(times),
        "scans": _scans(tracer),
        "evictions": cache.stats.evictions,
        "over_bound": over_bound,
        "written": entry_bytes * _CAPACITY_STORES,
    }


def test_cache_store_cost(benchmark, tmp_path):
    def measure():
        tiers = {n: _existing_tier(tmp_path / f"tier{n}", n) for n in _TIERS}
        return tiers, _at_capacity(tmp_path / "capacity")

    tiers, full = benchmark.pedantic(measure, rounds=1, iterations=1)
    rows = [
        [
            f"{entries:,} entries, 64 MiB bound",
            f"{r['median'] * 1e3:.2f} ms",
            f"{r['steady_scans'] / _STEADY_STORES:.3f}",
            f"{r['first'] * 1e3:.1f} ms",
            "0",
        ]
        for entries, r in tiers.items()
    ]
    rows.append([
        "at capacity, 4 MiB bound",
        f"{full['median'] * 1e3:.2f} ms",
        f"{full['scans'] / _CAPACITY_STORES:.3f}",
        "-",
        str(full["evictions"]),
    ])
    emit(
        "cache_store",
        format_table(
            ["tier", "median store", "scans / store", "first store (full scan)",
             "evictions"],
            rows,
            title=(
                f"Disk-tier store cost (~7 KB entries; median of {_STEADY_STORES} "
                f"stores into an existing tier, {_CAPACITY_STORES} at capacity)"
            ),
        ),
    )

    for r in tiers.values():
        assert r["first_scans"] == 1  # a handle's first store seeds by a scan
        assert r["steady_scans"] == 0  # ~420 KB written: under an eighth of 64 MiB
    # At capacity a scan comes once per eighth of the budget written
    # (plus the seeding scan), and no store leaves the tier over the bound.
    assert full["scans"] <= full["written"] // (_CAPACITY_BYTES // 8) + 1
    assert full["evictions"] > 0
    assert full["over_bound"] == 0
