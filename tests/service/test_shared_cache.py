"""Cross-process cache sharing: the ``shared_cache`` surface end to end.

The tentpole invariant is byte identity: builds whose shard/pool
children read and write the shared disk cache must produce exactly the
OAT image a cache-blind (and a cache-less) build produces — across the
paper configurations, both mining engines, shard widths, and on both
cold and warm caches.  On top of that the suite pins the sharing
itself: a group mined by one executor's children is a disk hit for a
*different* executor (different shard width, different symbol prefixes —
the cross-shard/cross-tenant reuse).
"""

from __future__ import annotations

import dataclasses
import pickle

import pytest

from repro import observability as obs
from repro.compiler.driver import dex2oat
from repro.core.candidates import select_candidates
from repro.core.errors import ConfigError
from repro.core.outline import (
    DEFAULT_MAX_LENGTH,
    DEFAULT_MIN_LENGTH,
    DEFAULT_MIN_SAVED,
)
from repro.core.parallel import _worker
from repro.core.pipeline import CalibroConfig, build_app
from repro.service import (
    BuildService,
    OutlineCache,
    ServiceConfig,
    ShardExecutor,
    SharedCacheSpec,
    WorkerPool,
)
from repro.service.cache import outline_payload_key
from repro.workloads import app_spec, generate_app


@pytest.fixture(scope="module")
def dexfile():
    return generate_app(app_spec("Wechat", scale=0.05)).dexfile


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
        "suffixtree",
        prefix,
    )


def _distinct_payloads(candidates, count, tag):
    """``count`` outline payloads with pairwise-distinct content (each
    takes a different candidate slice) and per-tenant symbol prefixes."""
    return [
        _payload(candidates[: 4 + i], prefix=f"{tag}$g{i}") for i in range(count)
    ]


def _double(value):
    return value * 2


def _result_signature(result):
    return (
        [(m.name, m.code) for m in result.outlined],
        {i: m.code for i, m in result.rewritten.items()},
    )


# -- the config knob ----------------------------------------------------------


def test_shared_cache_resolution_follows_cache_dir(tmp_path):
    assert ServiceConfig().shared_cache_enabled is False
    assert ServiceConfig(cache_dir=tmp_path).shared_cache_enabled is True
    assert (
        ServiceConfig(cache_dir=tmp_path, shared_cache=False).shared_cache_enabled
        is False
    )
    assert (
        ServiceConfig(cache_dir=tmp_path, shared_cache=True).shared_cache_enabled
        is True
    )


def test_shared_cache_true_requires_a_disk_tier():
    with pytest.raises(ConfigError, match="shared_cache=True requires cache_dir"):
        ServiceConfig(shared_cache=True)


def test_shared_cache_must_be_bool_or_none():
    with pytest.raises(ConfigError, match="shared_cache"):
        ServiceConfig(shared_cache="yes")


def test_config_dict_round_trips_shared_cache(tmp_path):
    config = ServiceConfig(cache_dir=tmp_path, shared_cache=False)
    doc = config.to_dict()
    assert doc["shared_cache"] is False
    assert ServiceConfig.from_dict(doc) == config
    # A v1 document (no shared_cache key) still loads: the knob
    # defaults to auto-resolution.
    legacy = {k: v for k, v in doc.items() if k != "shared_cache"}
    legacy["schema_version"] = 1
    assert ServiceConfig.from_dict(legacy).shared_cache is None


# -- the spec and the wrapper -------------------------------------------------


def test_shared_spec_derivation(tmp_path):
    cache = OutlineCache(tmp_path, max_bytes=12345, memory_entries=512)
    spec = cache.shared_spec()
    assert spec == SharedCacheSpec(
        directory=str(tmp_path), max_bytes=12345, memory_entries=64
    )
    # Memory-only caches have nothing cross-process to share.
    assert OutlineCache().shared_spec() is None
    # The spec survives the pickle boundary it exists to cross.
    assert pickle.loads(pickle.dumps(spec)) == spec


def test_spec_open_caches_one_handle_per_role(tmp_path):
    spec = SharedCacheSpec(directory=str(tmp_path))
    assert spec.open("worker") is spec.open("worker")
    assert spec.open("supervisor") is not spec.open("worker")
    assert spec.open().role == "worker"


def test_outline_payload_key_duck_checks_shape(candidates):
    key, prefix = outline_payload_key(_payload(candidates, prefix="A$g0"))
    assert key == OutlineCache.group_key(_payload(candidates))
    assert prefix == "A$g0"
    # map_groups is generic: non-outline payloads pass through unkeyed.
    assert outline_payload_key(7) == (None, None)
    assert outline_payload_key((1, 2, 3)) == (None, None)


def test_shared_cache_worker_read_through_write_back(tmp_path, candidates):
    spec = SharedCacheSpec(directory=str(tmp_path))
    payload = _payload(candidates, prefix="TenantA$g0")

    cold, hit = spec.lookup_or_compute(_worker, payload)  # computes, writes back
    assert hit is False
    assert OutlineCache(tmp_path).disk_bytes() > 0
    # A different tenant's prefix is a hit (rebranded), byte-equal to a
    # fresh computation under that prefix.
    warm_payload = _payload(candidates, prefix="TenantB$g3")
    warm, hit = spec.lookup_or_compute(_worker, warm_payload)
    assert hit is True
    assert _result_signature(warm) == _result_signature(_worker(warm_payload))
    assert _result_signature(cold) == _result_signature(_worker(payload))
    # Non-outline payloads fall straight through to the worker.
    assert spec.lookup_or_compute(_double, 21) == (42, None)


# -- shard children share the disk tier ---------------------------------------


def test_shard_children_hit_across_executors(tmp_path, candidates):
    """A group mined by executor A's children (tenant A, width 2) is a
    disk hit inside executor B's children (tenant B, width 3, different
    shard placement)."""
    spec = SharedCacheSpec(directory=str(tmp_path))
    cold_payloads = _distinct_payloads(candidates, 6, "TenantA")
    with ShardExecutor(shards=2, cache=spec) as tenant_a:
        cold = tenant_a.map_groups(_worker, cold_payloads)
    assert tenant_a.stats.shared_lookups == 6
    assert tenant_a.stats.shared_hits == 0
    for result, payload in zip(cold, cold_payloads):
        assert _result_signature(result) == _result_signature(_worker(payload))

    warm_payloads = _distinct_payloads(candidates, 6, "TenantB")
    with ShardExecutor(shards=3, cache=spec) as tenant_b:
        warm = tenant_b.map_groups(_worker, warm_payloads)
    assert tenant_b.stats.shared_lookups == 6
    assert tenant_b.stats.shared_hits == 6
    for result, payload in zip(warm, warm_payloads):
        assert _result_signature(result) == _result_signature(_worker(payload))


def test_shard_shared_hits_surface_in_the_trace(tmp_path, candidates):
    spec = SharedCacheSpec(directory=str(tmp_path))
    with ShardExecutor(shards=2, cache=spec) as cold:
        cold.map_groups(_worker, _distinct_payloads(candidates, 4, "A"))
    with obs.tracing() as tracer:
        with ShardExecutor(shards=2, cache=spec) as warm:
            warm.map_groups(_worker, _distinct_payloads(candidates, 4, "B"))
    # Child-side counters merged back into the supervising tracer.
    assert tracer.counters.get("service.pool.shared_hits") == 4
    assert tracer.counters.get("service.cache.worker_hits") == 4
    assert warm.stats.as_dict()["shared_hits"] == 4


# -- pool workers share the disk tier -----------------------------------------


def test_pool_workers_hit_shared_cache(tmp_path, candidates):
    spec = SharedCacheSpec(directory=str(tmp_path))
    with WorkerPool(max_workers=2, cache=spec) as cold_pool:
        cold_pool.map_groups(_worker, _distinct_payloads(candidates, 4, "A"))
    assert OutlineCache(tmp_path).disk_bytes() > 0
    warm_payloads = _distinct_payloads(candidates, 4, "B")
    with obs.tracing() as tracer:
        with WorkerPool(max_workers=2, cache=spec) as warm_pool:
            warm = warm_pool.map_groups(_worker, warm_payloads)
    assert tracer.counters.get("service.cache.worker_hits") == 4
    for result, payload in zip(warm, warm_payloads):
        assert _result_signature(result) == _result_signature(_worker(payload))


def test_pool_passes_non_outline_payloads_through(tmp_path):
    spec = SharedCacheSpec(directory=str(tmp_path))
    with WorkerPool(max_workers=2, cache=spec) as pool:
        assert pool.map_groups(_double, [1, 2, 3, 4]) == [2, 4, 6, 8]


# -- byte identity: shared vs non-shared vs reference -------------------------


def _configs(dexfile):
    profile = {m.name: 10 for m in dexfile.all_methods()[:8]}
    return [
        CalibroConfig.cto(),
        CalibroConfig.cto_ltbo(),
        CalibroConfig.cto_ltbo_plopti(groups=4),
        CalibroConfig.full(profile, groups=4),
    ]


@pytest.mark.parametrize("engine", ["suffixtree", "suffixarray"])
def test_shared_builds_byte_identical_across_matrix(tmp_path, dexfile, engine):
    """Every paper config × shard width {1, 4} × shared on/off, cold and
    warm, against the plain ``build_app`` reference — one wrong byte
    anywhere in the sharing layer fails here."""
    for index, base in enumerate(_configs(dexfile)):
        config = dataclasses.replace(base, engine=engine)
        reference = build_app(dexfile, config).oat.to_bytes()
        for shards in (1, 4):
            for shared in (True, False):
                cache_dir = tmp_path / f"{engine}-{index}-{shards}-{shared}"
                service_config = ServiceConfig(
                    cache_dir=cache_dir, shards=shards, shared_cache=shared
                )
                with BuildService(service_config) as service:
                    cold = service.submit(dexfile, config).build.oat.to_bytes()
                    warm = service.submit(dexfile, config).build.oat.to_bytes()
                label = f"{config.name}/{engine}/shards={shards}/shared={shared}"
                assert cold == reference, f"cold mismatch: {label}"
                assert warm == reference, f"warm mismatch: {label}"


def test_warm_cross_service_build_is_byte_identical(tmp_path, dexfile):
    """Tenant B's *fresh* service (cold memory, cold graph) on tenant
    A's populated directory must byte-match — and must actually hit."""
    config = CalibroConfig.cto_ltbo_plopti(groups=4)
    reference = build_app(dexfile, config).oat.to_bytes()
    with BuildService(ServiceConfig(cache_dir=tmp_path, shards=2)) as tenant_a:
        assert tenant_a.submit(dexfile, config).build.oat.to_bytes() == reference
    with BuildService(ServiceConfig(cache_dir=tmp_path, shards=2)) as tenant_b:
        report = tenant_b.submit(dexfile, config)
        assert report.build.oat.to_bytes() == reference
        stats = tenant_b.stats()
    assert stats["shared_cache"] is True
    # The supervisor's disk pre-lookup served tenant A's entries.
    assert stats["cache"]["hits"] >= 4


def test_stats_report_the_resolved_flag(tmp_path, dexfile):
    with BuildService(ServiceConfig(cache_dir=tmp_path)) as service:
        assert service.stats()["shared_cache"] is True
    with BuildService(
        ServiceConfig(cache_dir=tmp_path, shared_cache=False)
    ) as service:
        assert service.stats()["shared_cache"] is False
    with BuildService(ServiceConfig()) as service:
        assert service.stats()["shared_cache"] is False
