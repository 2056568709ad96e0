"""Group executors on warm processes: outline time + byte-identical output.

Every PlOpti entry point is a chunking policy over one supervised
executor (:class:`repro.suffixtree.parallel.GroupExecutor`):
``map_over_groups`` sends one round-robin chunk per job, the worker
pool one group per chunk, the shard executor one round-robin chunk per
shard.  This benchmark times the outline phase (``outline_partitioned``
over K groups, under a tracer as ``build_app`` runs it) through each
policy on *warm* executors — their processes started by an untimed
call, as in a long-lived build service — against the in-process run.
Arms are interleaved over several rounds and the median is reported,
so the timings exclude process start-up and damp scheduler noise.

It also builds each app end to end through the plain pipeline and
through ``BuildService`` with the pool and with shards, and asserts the
OAT bytes are identical and that the recovery ladder stayed cold.
"""

from __future__ import annotations

import statistics
import time

from repro import observability as obs
from repro.compiler.driver import dex2oat
from repro.core import CalibroConfig, build_app
from repro.core.candidates import select_candidates
from repro.core.parallel import outline_partitioned
from repro.reporting import format_table
from repro.service import BuildService, ServiceConfig, ShardExecutor, WorkerPool
from repro.suffixtree.parallel import available_parallelism, clamp_jobs
from repro.workloads import app_spec, generate_app

from _bench_util import BENCH_SCALE, PLOPTI_GROUPS, emit

_SCALE = max(1.0, BENCH_SCALE)
_APPS = ["Taobao", "Wechat"]
_SHARD_WIDTHS = (2, 4)
_ROUNDS = 7


def _timed_outline(candidates, **kwargs) -> float:
    with obs.tracing():
        start = time.perf_counter()
        outline_partitioned(candidates, PLOPTI_GROUPS, **kwargs)
        return time.perf_counter() - start


def _executor_medians(candidates) -> dict[str, tuple[float, int]]:
    """Median outline seconds and dispatches per call, per executor."""
    pools = {"pool x2": WorkerPool(max_workers=2)}
    for shards in _SHARD_WIDTHS:
        pools[f"shards x{shards}"] = ShardExecutor(shards=shards)
    arms = {
        "in-process": {"jobs": 1},
        f"map_over_groups x{clamp_jobs(2, PLOPTI_GROUPS)}": {"jobs": 2},
        **{name: {"pool": pool} for name, pool in pools.items()},
    }
    samples: dict[str, list[float]] = {name: [] for name in arms}
    try:
        for kwargs in arms.values():  # warm: start every process pool
            _timed_outline(candidates, **kwargs)
        dispatched = {name: pool.stats.dispatches for name, pool in pools.items()}
        for round_index in range(_ROUNDS):
            order = list(arms.items())
            if round_index % 2:
                order.reverse()
            for name, kwargs in order:
                samples[name].append(_timed_outline(candidates, **kwargs))
        dispatches = {
            name: (pool.stats.dispatches - dispatched[name]) // _ROUNDS
            for name, pool in pools.items()
        }
        assert all(
            pool.stats.serial_fallbacks == 0 and pool.stats.failures == 0
            for pool in pools.values()
        ), "executor recovery machinery engaged on a healthy run"
    finally:
        for pool in pools.values():
            pool.close()
    return {
        name: (statistics.median(values), dispatches.get(name, 0))
        for name, values in samples.items()
    }


def test_shard_scaling_byte_identity(benchmark):
    def measure():
        config = CalibroConfig.cto_ltbo_plopti(groups=PLOPTI_GROUPS)
        rows = []
        identical = True
        for name in _APPS:
            dexfile = generate_app(app_spec(name, _SCALE)).dexfile
            reference = build_app(dexfile, config).oat.to_bytes()
            services = [ServiceConfig(max_workers=2)] + [
                ServiceConfig(shards=shards) for shards in _SHARD_WIDTHS
            ]
            for service_config in services:
                with BuildService(service_config) as service:
                    built = service.submit(dexfile, config).build.oat.to_bytes()
                identical &= built == reference
            candidates = select_candidates(
                list(dex2oat(dexfile, cto=True).methods)
            ).candidates
            medians = _executor_medians(candidates)
            inline_s = medians["in-process"][0]
            for arm, (seconds, dispatches) in medians.items():
                rows.append((name, arm, seconds, inline_s, dispatches))
        return rows, identical

    rows, identical = benchmark.pedantic(measure, rounds=1, iterations=1)

    table = format_table(
        ["app", "executor", "outline (s)", "vs in-process", "dispatches/call"],
        [
            [name, arm, f"{seconds:.3f}", f"{seconds / inline_s:.2f}x",
             str(dispatches) if dispatches else "-"]
            for name, arm, seconds, inline_s, dispatches in rows
        ],
    )
    emit(
        "shard_scaling",
        "warm group executors, outline phase "
        f"(scale {_SCALE}, K={PLOPTI_GROUPS}, {available_parallelism()} CPUs, "
        f"median of {_ROUNDS} interleaved rounds):\n{table}\n"
        f"output bytes identical across all executors: {identical}",
    )

    assert identical, "executor build output diverged from the serial build"
