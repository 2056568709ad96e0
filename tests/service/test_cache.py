"""The content-addressed outline cache: keys, chunks, disk tier."""

from __future__ import annotations

import pickle
import time

import pytest

from repro import observability as obs
from repro.compiler.driver import dex2oat
from repro.core.candidates import select_candidates
from repro.core.errors import ServiceError
from repro.core.outline import DEFAULT_MAX_LENGTH, DEFAULT_MIN_LENGTH, DEFAULT_MIN_SAVED
from repro.core.parallel import _worker
from repro.service import OutlineCache


@pytest.fixture(scope="module")
def candidates(small_app):
    result = dex2oat(small_app.dexfile, cto=True)
    return select_candidates(list(result.methods)).candidates


def _payload(candidates, prefix="MethodOutliner$g0", min_length=DEFAULT_MIN_LENGTH):
    return (
        candidates,
        frozenset(),
        min_length,
        DEFAULT_MAX_LENGTH,
        DEFAULT_MIN_SAVED,
        prefix,
    )


def test_group_key_is_stable_and_content_sensitive(candidates):
    payload = _payload(candidates)
    key = OutlineCache.group_key(payload)
    assert key == OutlineCache.group_key(_payload(candidates))
    assert len(key) == 64  # sha256 hex
    # Thresholds are key material ...
    assert key != OutlineCache.group_key(_payload(candidates, min_length=3))
    # ... the hot mask is key material ...
    hot = (candidates, frozenset({candidates[0][1].name}), DEFAULT_MIN_LENGTH,
           DEFAULT_MAX_LENGTH, DEFAULT_MIN_SAVED, "MethodOutliner$g0")
    assert key != OutlineCache.group_key(hot)
    # ... and so is the symbol prefix.
    assert key != OutlineCache.group_key(_payload(candidates, prefix="Other$g7"))


def test_miss_then_hit_then_stats(candidates):
    cache = OutlineCache()
    payload = _payload(candidates)
    key = OutlineCache.group_key(payload)
    assert cache.lookup_chunk(key) is None
    cache.store_chunk(key, _worker(payload))
    assert cache.lookup_chunk(key) is not None
    assert cache.stats.hits == 1 and cache.stats.misses == 1
    assert cache.stats.stores == 1 and cache.stats.hit_rate == 0.5


def test_disk_round_trip_across_instances(tmp_path, candidates):
    payload = _payload(candidates)
    key = OutlineCache.group_key(payload)
    writer = OutlineCache(tmp_path)
    writer.store_chunk(key, _worker(payload))
    assert writer.disk_bytes() > 0

    reader = OutlineCache(tmp_path)
    assert reader.lookup_chunk(key) is not None
    assert reader.stats.disk_hits == 1
    # The entry was promoted to memory: a second lookup skips the disk.
    assert reader.lookup_chunk(key) is not None
    assert reader.stats.disk_hits == 1 and reader.stats.hits == 2


def test_corrupt_disk_entry_self_heals(tmp_path):
    cache = OutlineCache(tmp_path)
    cache.store_object("deadbeef00", b"payload")
    [path] = [p for p in tmp_path.rglob("*.bin")]
    path.write_bytes(b"not a pickle")
    fresh = OutlineCache(tmp_path)
    assert fresh.lookup_object("deadbeef00") is None
    assert not path.exists()


def test_format_version_mismatch_is_a_miss(tmp_path):
    cache = OutlineCache(tmp_path)
    cache.store_object("deadbeef11", b"payload")
    [path] = [p for p in tmp_path.rglob("*.bin")]
    path.write_bytes(pickle.dumps({"version": 999, "value": b"stale"}))
    fresh = OutlineCache(tmp_path)
    assert fresh.lookup_object("deadbeef11") is None


def test_lru_eviction_is_size_bounded_and_recency_aware(tmp_path):
    blob = b"x" * 2000
    cache = OutlineCache(tmp_path, max_bytes=5000, memory_entries=1)
    cache.store_object("aa" * 32, blob)
    time.sleep(0.02)
    cache.store_object("bb" * 32, blob)
    time.sleep(0.02)
    assert cache.stats.evictions == 0
    # Touch "aa" so "bb" becomes the least recently used entry; the
    # memory tier holds one entry, so this read goes to disk (utime).
    assert cache.lookup_object("aa" * 32) is not None
    time.sleep(0.02)
    cache.store_object("cc" * 32, blob)  # 3 * ~2KB > 5000 -> evict
    assert cache.stats.evictions >= 1
    assert cache.disk_bytes() <= 5000

    fresh = OutlineCache(tmp_path, max_bytes=5000)
    assert fresh.lookup_object("bb" * 32) is None  # the LRU victim
    assert fresh.lookup_object("aa" * 32) is not None
    assert fresh.lookup_object("cc" * 32) is not None


def test_eviction_drops_the_bytes_gauge(tmp_path):
    """``service.cache.bytes`` reports the *current* disk tier
    (``gauge_set``): eviction must pull the gauge down, not leave the
    pre-eviction peak standing."""
    from repro import observability as obs

    with obs.tracing() as tracer:
        cache = OutlineCache(tmp_path, max_bytes=5000, memory_entries=1)
        cache.store_object("aa" * 32, b"x" * 4000)
        peak = tracer.gauges["service.cache.bytes"]
        time.sleep(0.02)
        cache.store_object("bb" * 32, b"y" * 800)
        time.sleep(0.02)
        cache.store_object("cc" * 32, b"z" * 800)  # over budget: evict "aa"
    assert cache.stats.evictions >= 1
    gauge = tracer.gauges["service.cache.bytes"]
    assert gauge == cache.disk_bytes()
    assert gauge < peak


def test_clear_drops_both_tiers(tmp_path):
    cache = OutlineCache(tmp_path)
    cache.store_object("ee" * 32, b"v")
    cache.clear()
    assert cache.disk_bytes() == 0
    assert cache.lookup_object("ee" * 32) is None


def test_constructor_validation():
    with pytest.raises(ServiceError):
        OutlineCache(max_bytes=0)
    with pytest.raises(ServiceError):
        OutlineCache(memory_entries=0)


# -- keyed chunk API (the graph's view of the cache) --------------------------


def test_chunk_is_returned_as_stored_and_only_under_its_prefix(candidates):
    """A chunk keys on the symbol prefix it was outlined under: the same
    candidates under another prefix miss, and a hit is the stored
    result itself, its outlined names still under the stored prefix."""
    cache = OutlineCache()
    payload = _payload(candidates, prefix="PrefixA$g0")
    result = _worker(payload)
    cache.store_chunk(OutlineCache.group_key(payload), result)

    other = OutlineCache.group_key(_payload(candidates, prefix="PrefixB$g5"))
    assert cache.lookup_chunk(other) is None
    hit = cache.lookup_chunk(OutlineCache.group_key(payload))
    assert hit is result
    assert hit.outlined and all(m.name.startswith("PrefixA$g0$") for m in hit.outlined)


def test_non_chunk_entry_under_a_chunk_key_is_a_miss():
    cache = OutlineCache()
    cache.store_object("ab" * 32, ("PrefixA$g0", "not a chunk"))
    assert cache.lookup_chunk("ab" * 32) is None


# -- stores without a scan per store ------------------------------------------


def _store_scans(tracer) -> int:
    return tracer.counters.get("service.cache.scans", 0)


def test_stores_below_the_bound_scan_only_at_the_first(tmp_path):
    """A handle seeds its tracked byte total with one scan at its first
    store and only adds to it afterwards, while the tier is far below
    the bound and the handle has written less than an eighth of it."""
    with obs.tracing() as tracer:
        cache = OutlineCache(tmp_path)  # 64 MiB
        for index in range(20):
            cache.store_object(f"{index:02x}" * 32, b"v" * 500)
        assert _store_scans(tracer) == 1
    assert tracer.histograms["service.cache.store_seconds"].count == 20
    assert tracer.gauges["service.cache.bytes"] == cache.disk_bytes()


def test_full_tier_stays_bounded_and_scans_once_per_share(tmp_path):
    """At capacity a scan evicts to an eighth below the bound, so the
    next scan comes an eighth of the budget later — not at every store —
    and no store ever leaves the tier above ``max_bytes``."""
    max_bytes = 64_000
    with obs.tracing() as tracer:
        cache = OutlineCache(tmp_path, max_bytes=max_bytes, memory_entries=1)
        for index in range(200):
            cache.store_object(f"{index:04x}" * 16, bytes([index % 251]) * 1000)
            assert cache.disk_bytes() <= max_bytes
        assert _store_scans(tracer) <= 200 // 6
    assert cache.stats.evictions > 0


def test_two_handles_overshoot_the_bound_by_at_most_their_shares(tmp_path):
    """Two handles on one directory stand in for two processes: neither
    sees the other's writes until it scans, so the tier may pass the
    bound, but by at most one share plus one entry per handle — and the
    first store of a fresh handle scans it back under the bound."""
    max_bytes = 64_000
    handles = [OutlineCache(tmp_path, max_bytes=max_bytes, memory_entries=1)
               for _ in range(2)]
    handles[0].store_object("ff" * 32, b"s" * 1000)
    [first] = list(tmp_path.rglob("*.bin"))
    entry_size = first.stat().st_size
    slack = 2 * (max_bytes // 8 + entry_size)
    for index in range(200):
        handles[index % 2].store_object(f"{index:04x}" * 16, b"e" * 1000)
        assert handles[0].disk_bytes() <= max_bytes + slack
    fresh = OutlineCache(tmp_path, max_bytes=max_bytes)
    fresh.store_object("ee" * 32, b"f" * 1000)
    assert fresh.disk_bytes() <= max_bytes


def test_clear_makes_the_next_store_scan(tmp_path):
    with obs.tracing() as tracer:
        cache = OutlineCache(tmp_path)
        cache.store_object("aa" * 32, b"v")
        cache.store_object("bb" * 32, b"v")
        assert _store_scans(tracer) == 1
        cache.clear()
        cache.store_object("cc" * 32, b"v")
        assert _store_scans(tracer) == 2
    assert tracer.gauges["service.cache.bytes"] == cache.disk_bytes() > 0
