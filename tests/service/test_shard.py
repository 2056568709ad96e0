"""Multi-process sharded group builds: determinism, merge order, stats.

The acceptance bar for the shard executor is byte identity: a build
routed through N shard processes must produce exactly the OAT image the
single-process pool (and the plain serial pipeline) produces, under
every paper configuration.  Everything else — supervision stats and
merged metrics — is checked on top of that invariant.
"""

from __future__ import annotations

import pytest

from repro import observability as obs
from repro.core.errors import ConfigError, ServiceError
from repro.core.pipeline import CalibroConfig, build_app
from repro.service import BuildService, ServiceConfig, ShardExecutor
from repro.suffixtree.parallel import round_robin_shards
from repro.workloads import app_spec, generate_app


def _double(value):
    return value * 2


def _boom(value):
    raise ValueError(f"deterministic bug for {value}")


@pytest.fixture(scope="module")
def dexfile():
    return generate_app(app_spec("Wechat", scale=0.05)).dexfile


def _configs(dexfile):
    profile = {m.name: 10 for m in dexfile.all_methods()[:8]}
    return [
        CalibroConfig.cto(),
        CalibroConfig.cto_ltbo(),
        CalibroConfig.cto_ltbo_plopti(groups=4),
        CalibroConfig.full(profile, groups=4),
    ]


# -- placement ----------------------------------------------------------------


def test_round_robin_is_deterministic_and_covers():
    assignment = round_robin_shards(10, 3)
    assert assignment == [[0, 3, 6, 9], [1, 4, 7], [2, 5, 8]]
    flat = sorted(i for bucket in assignment for i in bucket)
    assert flat == list(range(10))
    # More shards than items: one bucket per item, no empties.
    assert round_robin_shards(2, 8) == [[0], [1]]
    with pytest.raises(Exception):
        round_robin_shards(4, 0)


# -- the executor as a map_groups collaborator --------------------------------


def test_shard_executor_preserves_payload_order():
    with ShardExecutor(shards=3) as executor:
        assert executor.map_groups(_double, list(range(10))) == [
            n * 2 for n in range(10)
        ]
        assert executor.stats.tasks == 10
        assert executor.stats.dispatches == 3
        assert executor.stats.serial_fallbacks == 0


def test_single_shard_runs_in_process():
    with ShardExecutor(shards=1) as executor:
        assert executor.map_groups(_double, [1, 2, 3]) == [2, 4, 6]
        assert executor._executor is None  # no processes were forked


def test_deterministic_worker_bug_still_raises():
    with ShardExecutor(shards=2) as executor:
        with pytest.raises(ValueError, match="deterministic bug"):
            executor.map_groups(_boom, [1, 2])
        # Both attempts failed in children; the serial fallback
        # surfaced the bug in-process instead of absorbing it.
        assert executor.stats.failures >= 1
        assert executor.stats.serial_fallbacks >= 1


def test_closed_executor_rejects_work():
    executor = ShardExecutor(shards=2)
    executor.close()
    with pytest.raises(ServiceError):
        executor.map_groups(_double, [1])


def test_shard_count_validation():
    with pytest.raises(ServiceError):
        ShardExecutor(shards=0)
    # Service-level validation moved into ServiceConfig.__post_init__,
    # which speaks ConfigError like every other config surface.
    with pytest.raises(ConfigError):
        BuildService(ServiceConfig(shards=0))


# -- byte identity across the four paper configs ------------------------------


def test_sharded_builds_byte_identical_across_configs(dexfile):
    for config in _configs(dexfile):
        plain = build_app(dexfile, config).oat.to_bytes()
        with BuildService(ServiceConfig(shards=2)) as sharded:
            via_shards = sharded.submit(dexfile, config).build.oat.to_bytes()
        with BuildService(ServiceConfig(max_workers=2)) as pooled:
            via_pool = pooled.submit(dexfile, config).build.oat.to_bytes()
        assert via_shards == plain, f"shard mismatch under {config.name}"
        assert via_pool == plain, f"pool mismatch under {config.name}"


def test_shard_width_does_not_change_bytes(dexfile):
    config = CalibroConfig.cto_ltbo_plopti(groups=6)
    images = set()
    for shards in (2, 3, 5):
        with BuildService(ServiceConfig(shards=shards)) as service:
            images.add(service.submit(dexfile, config).build.oat.to_bytes())
    assert len(images) == 1


# -- observability merge ------------------------------------------------------


def test_shard_metrics_feed_the_build_trace(dexfile):
    config = CalibroConfig.cto_ltbo_plopti(groups=4)
    with obs.tracing() as tracer:
        with BuildService(ServiceConfig(shards=2)) as service:
            service.submit(dexfile, config)
        trace = tracer.snapshot()
    assert trace.counters["service.pool.tasks"] == 4
    assert trace.counters["service.pool.dispatches"] == 2
    hist = trace.histograms["service.pool.wait_seconds"]
    assert hist.count == 2 and hist.sum > 0
    # One real child span per healthy shard under the map span.
    map_span = trace.find("service.pool.map")
    assert map_span is not None
    runs = [c for c in map_span.children if c.name == "service.pool.task"]
    assert len(runs) == 2
    assert sorted(r.attrs["unit"] for r in runs) == [0, 1]
    # Shard-local mining metrics merged back: the trace knows more than
    # the in-process pool path could see.
    assert any(name.startswith("mine.") for name in trace.histograms)


def test_service_stats_expose_shard_section(dexfile):
    config = CalibroConfig.cto_ltbo_plopti(groups=4)
    with BuildService(ServiceConfig(shards=2)) as service:
        service.submit(dexfile, config)
        stats = service.stats()
    # The shard executor is the service's one executor: no idle pool
    # beside it, and no separate section.
    assert stats["pool"]["width"] == 2
    assert stats["pool"]["tasks"] == 4
    assert "shard" not in stats


@pytest.mark.parametrize(
    ("service_config", "expected"),
    [(ServiceConfig(max_workers=1), 1), (ServiceConfig(shards=4), 4)],
    ids=["pool-width-1", "shards-4"],
)
def test_plopti_jobs_records_the_executor_that_ran(
    dexfile, monkeypatch, service_config, expected
):
    """The gauge reads the parallelism of the executor that ran the
    groups, not the config's CPU-clamped ``jobs`` (2 here)."""
    import repro.suffixtree.parallel as par

    monkeypatch.setattr(par, "available_parallelism", lambda: 2)
    config = CalibroConfig.cto_ltbo_plopti(groups=4)
    with BuildService(service_config) as service, obs.tracing() as tracer:
        service.submit(dexfile, config)
    assert tracer.gauges["plopti.jobs"] == expected
