"""The fault-injection suite: drive the recovery ladders, don't trust them.

Every scenario arms a deterministic :class:`FaultPlan` (seed + exact
``site:key`` match list), routes real work through the
:class:`WorkerPool` or :class:`ShardExecutor`, and asserts two things:

1. the ladder engaged — the stats counters show the timeout / failure /
   retry / serial-fallback path the plan scripted;
2. the output is *unchanged* — same results, and for full builds the
   same OAT bytes a fault-free run produces.  Recovery that alters
   output is not recovery.

Fault workers live at module level so the executors can pickle them;
faults themselves fire only in pool/shard children (``in_parent=False``
is the plan default), which is what makes the serial fallback a
guaranteed clean landing.
"""

from __future__ import annotations

import time

import pytest

from repro import observability as obs
from repro.core.errors import ServiceError
from repro.core.pipeline import CalibroConfig, build_app
from repro.service import BuildService, ServiceConfig, ShardExecutor, WorkerPool
from repro.service.faults import FaultPlan, armed, maybe_inject
from repro.workloads import app_spec, generate_app


def _double(value):
    return value * 2


@pytest.fixture(scope="module")
def dexfile():
    return generate_app(app_spec("Wechat", scale=0.05)).dexfile


# -- the plan itself ----------------------------------------------------------


def test_plan_validates_rates():
    with pytest.raises(ServiceError):
        FaultPlan(crash=1.5)
    with pytest.raises(ServiceError):
        FaultPlan(crash=0.6, hang=0.6)
    with pytest.raises(ServiceError):
        FaultPlan(slow=1.0, slow_seconds=-1)


def test_plan_env_round_trip():
    plan = FaultPlan(seed=7, crash=0.25, hang=0.25, match=("pool:0", "shard:1"))
    assert FaultPlan.from_env({"CALIBRO_FAULTS": plan.to_env()}) == plan
    assert FaultPlan.from_env({}) is None
    with pytest.raises(ServiceError):
        FaultPlan.from_env({"CALIBRO_FAULTS": "{not json"})
    with pytest.raises(ServiceError):
        FaultPlan.from_env({"CALIBRO_FAULTS": '{"seed": 1, "typo_rate": 0.5}'})


def test_decide_is_deterministic_and_respects_match():
    plan = FaultPlan(seed=3, crash=1.0, match=("pool:2",))
    assert plan.decide("pool", "2") == "crash"
    assert plan.decide("pool", "2") == "crash"  # replayable
    assert plan.decide("pool", "1") is None  # filtered by match
    assert plan.decide("shard", "2") is None  # site is part of the key
    # Without a match list, rate 1.0 fires for every task.
    assert FaultPlan(seed=3, hang=1.0).decide("pool", "99") == "hang"
    # Rates partition the same draw: the decision changes with the seed,
    # never with the process asking.
    draws = {FaultPlan(seed=s, crash=0.5, hang=0.5).decide("pool", "0") for s in range(8)}
    assert draws <= {"crash", "hang"}


def test_faults_never_fire_in_the_supervising_process():
    # crash=1.0 with no match list would kill whatever process runs it —
    # in_parent=False (the default) keeps it out of this very test.
    with armed(FaultPlan(seed=1, crash=1.0)):
        assert maybe_inject("pool", "0") is None


# -- through the worker pool --------------------------------------------------


def test_slow_fault_delays_but_does_not_degrade():
    plan = FaultPlan(seed=2, slow=1.0, slow_seconds=0.01)
    with armed(plan):
        with WorkerPool(max_workers=2) as pool:
            assert pool.map_groups(_double, [1, 2, 3, 4]) == [2, 4, 6, 8]
    assert pool.stats.retries == 0
    assert pool.stats.serial_fallbacks == 0


def test_crash_fault_walks_the_pool_ladder():
    # pool:0 dies on every attempt (same key -> same draw), so task 0
    # must land via the serial fallback; the crash breaks the whole
    # executor, so sibling tasks recover through their own retries.
    plan = FaultPlan(seed=1, crash=1.0, match=("pool:0",))
    with armed(plan):
        with WorkerPool(max_workers=2) as pool:
            assert pool.map_groups(_double, [1, 2, 3]) == [2, 4, 6]
    assert pool.stats.failures >= 1
    assert pool.stats.restarts >= 1
    assert pool.stats.serial_fallbacks >= 1


def test_hang_fault_times_out_and_recovers():
    plan = FaultPlan(seed=1, hang=1.0, hang_seconds=5.0, match=("pool:0",))
    started = time.perf_counter()
    with armed(plan):
        pool = WorkerPool(max_workers=2, timeout=0.5)
        try:
            assert pool.map_groups(_double, [1, 2, 3]) == [2, 4, 6]
        finally:
            pool._restart(terminate=True)
            pool._closed = True
    # Both attempts for pool:0 hung (deterministic draw), then the
    # serial fallback landed it — without ever waiting out a 5 s nap.
    assert pool.stats.timeouts >= 2
    assert pool.stats.serial_fallbacks == 1
    assert pool.stats.restarts >= 2
    assert time.perf_counter() - started < 4.0


# -- through the shard supervisor ---------------------------------------------


def test_crash_fault_walks_the_shard_ladder():
    plan = FaultPlan(seed=1, crash=1.0, match=("shard:0",))
    with armed(plan):
        with ShardExecutor(shards=2) as executor:
            assert executor.map_groups(_double, [1, 2, 3, 4, 5]) == [2, 4, 6, 8, 10]
    assert executor.stats.failures >= 1
    assert executor.stats.retries >= 1
    assert executor.stats.serial_fallbacks >= 1


def test_hang_fault_times_out_a_shard_and_recovers():
    plan = FaultPlan(seed=1, hang=1.0, hang_seconds=5.0, match=("shard:0",))
    started = time.perf_counter()
    with armed(plan):
        executor = ShardExecutor(shards=2, timeout=0.5)
        try:
            assert executor.map_groups(_double, [1, 2, 3, 4]) == [2, 4, 6, 8]
        finally:
            executor._restart(terminate=True)
            executor._closed = True
    assert executor.stats.timeouts >= 1
    assert executor.stats.serial_fallbacks >= 1
    assert time.perf_counter() - started < 6.0


def test_group_level_fault_hits_one_chunk_only():
    # group:3 is a *global* index: only the shard owning it degrades.
    plan = FaultPlan(seed=1, crash=1.0, match=("group:3",))
    with armed(plan):
        with ShardExecutor(shards=2) as executor:
            assert executor.map_groups(_double, [1, 2, 3, 4]) == [2, 4, 6, 8]
    assert executor.stats.serial_fallbacks >= 1


def test_injected_counter_travels_back_from_shard_children():
    plan = FaultPlan(seed=2, slow=1.0, slow_seconds=0.001)
    with obs.tracing() as tracer:
        with armed(plan):
            with ShardExecutor(shards=2) as executor:
                executor.map_groups(_double, [1, 2, 3, 4])
    # Shard-local tracers counted their own injections; the merge made
    # them visible to the supervising trace.
    assert tracer.counters.get("service.faults.injected", 0) >= 2


# -- faults under a real build: recovery must not change the bytes -----------


def test_build_bytes_survive_pool_crashes(dexfile):
    config = CalibroConfig.cto_ltbo_plopti(groups=4)
    clean = build_app(dexfile, config).oat.to_bytes()
    plan = FaultPlan(seed=5, crash=1.0, match=("pool:1",))
    with armed(plan):
        with BuildService(ServiceConfig(max_workers=2)) as service:
            report = service.submit(dexfile, config)
    assert report.build.oat.to_bytes() == clean
    assert service.pool.stats.serial_fallbacks >= 1


def test_build_bytes_survive_shard_crashes(dexfile):
    config = CalibroConfig.cto_ltbo_plopti(groups=4)
    clean = build_app(dexfile, config).oat.to_bytes()
    plan = FaultPlan(seed=5, crash=1.0, match=("shard:0",))
    with armed(plan):
        with BuildService(ServiceConfig(shards=2)) as service:
            report = service.submit(dexfile, config)
    assert report.build.oat.to_bytes() == clean
    assert isinstance(service.pool, ShardExecutor)
    assert service.pool.stats.serial_fallbacks >= 1
