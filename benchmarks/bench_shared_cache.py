"""Shared disk cache vs cache-blind shard children on a Zipf-reuse workload.

Without a shared cache, a shard child sees nothing but its own chunk:
a group mined by shard 2 of tenant A is recomputed by shard 0 of tenant
B, and by *every* shard of the next request.  The shared disk cache
(``ServiceConfig(shared_cache=...)``) is exactly that missing
visibility.  This benchmark drains the same Zipf-ranked request stream
twice through fresh per-request shard executors — once cache-blind,
once with a :class:`SharedCacheSpec` on one directory — and asserts the
warm **cross-shard hit rate is strictly above zero**, with
byte-identical group results.

Every run also appends one cold and one warm ``BuildService`` build to
``benchmarks/_artifacts/shared_cache_ledger.jsonl`` (labels
``shared_cache_cold`` / ``shared_cache_warm``, so the CI gate compares
warm against warm across runs) and runs ``scripts/ci_gate.py`` over
the ledger in-process — the ``service.cache.hit_rate`` rule gates the
warm trajectory: a future change that quietly turns the warm build
cold goes red here.
"""

from __future__ import annotations

import importlib.util
import io
import random
import tempfile
import time
from pathlib import Path

from repro.compiler.driver import dex2oat
from repro.core import CalibroConfig, build_app
from repro.core.candidates import select_candidates
from repro.core.parallel import _worker
from repro.reporting import format_table
from repro.service import BuildService, ServiceConfig, ShardExecutor, SharedCacheSpec
from repro.suffixtree.parallel import partition_evenly
from repro.workloads import app_spec, generate_app

from _bench_util import BENCH_SCALE, PLOPTI_GROUPS, emit, _ARTIFACTS

_SCALE = max(1.0, BENCH_SCALE)
#: Zipf-ranked request population: rank r drawn with weight 1/r, so a
#: few apps dominate the stream — the reuse profile a build farm sees.
_APPS = ["Meituan", "Taobao", "Wechat"]
_REQUESTS = 8
_SHARDS = 4
_LEDGER = _ARTIFACTS / "shared_cache_ledger.jsonl"
_GATE = Path(__file__).resolve().parents[1] / "scripts" / "ci_gate.py"


def _load_gate():
    spec = importlib.util.spec_from_file_location("ci_gate", _GATE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _zipf_workload(rng: random.Random, n: int) -> list[str]:
    weights = [1.0 / rank for rank in range(1, len(_APPS) + 1)]
    return rng.choices(_APPS, weights=weights, k=n)


def _payloads_for(dexfile) -> list:
    """One request's group payloads, exactly as ``outline_partitioned``
    would cut them (CTO on, default thresholds, K partitions)."""
    candidates = select_candidates(
        list(dex2oat(dexfile, cto=True).methods)
    ).candidates
    partitions = partition_evenly(candidates, PLOPTI_GROUPS, seed=0)
    return [
        (part, frozenset(), 5, 32, 1, f"MethodOutliner$g{gi}")
        for gi, part in enumerate(partitions)
    ]


def _signature(result):
    return (
        [(m.name, m.code) for m in result.outlined],
        {i: m.code for i, m in result.rewritten.items()},
    )


def test_shared_cache_beats_cache_blind_shards(benchmark):
    def measure():
        dexfiles = {
            name: generate_app(app_spec(name, _SCALE)).dexfile for name in _APPS
        }
        request_payloads = {name: _payloads_for(dexfiles[name]) for name in _APPS}
        workload = _zipf_workload(random.Random(2024), _REQUESTS)
        _ARTIFACTS.mkdir(exist_ok=True)

        # Cache-blind baseline: a fresh executor per request (every
        # request is its own tenant/build), every group recomputed.
        baseline_results: list[list] = []
        t0 = time.perf_counter()
        for name in workload:
            with ShardExecutor(shards=_SHARDS) as executor:
                baseline_results.append(
                    executor.map_groups(_worker, request_payloads[name])
                )
        blind_s = time.perf_counter() - t0

        # Shared: same stream, fresh per-request executors, one disk
        # directory behind all of them.
        shared_hits = shared_lookups = 0
        identical = True
        t0 = time.perf_counter()
        with tempfile.TemporaryDirectory(prefix="calibro-shared-cache-") as tmp:
            spec = SharedCacheSpec(directory=str(tmp))
            for index, name in enumerate(workload):
                with ShardExecutor(shards=_SHARDS, cache=spec) as executor:
                    results = executor.map_groups(_worker, request_payloads[name])
                shared_hits += executor.stats.shared_hits
                shared_lookups += executor.stats.shared_lookups
                identical &= [_signature(r) for r in results] == [
                    _signature(r) for r in baseline_results[index]
                ]
        shared_s = time.perf_counter() - t0
        shared_rate = shared_hits / shared_lookups if shared_lookups else 0.0

        # Ledger trail: one cold and one warm full service build per
        # run, under stable labels so the CI gate compares warm against
        # warm (and cold against cold) across benchmark runs.
        config = CalibroConfig.cto_ltbo_plopti(groups=PLOPTI_GROUPS)
        reference = build_app(dexfiles["Meituan"], config).oat.to_bytes()
        with tempfile.TemporaryDirectory(prefix="calibro-shared-ledger-") as tmp:
            with BuildService(
                ServiceConfig(cache_dir=tmp, shards=2, ledger=_LEDGER)
            ) as cold_service:
                cold = cold_service.submit(
                    dexfiles["Meituan"], config, label="shared_cache_cold"
                )
            with BuildService(
                ServiceConfig(cache_dir=tmp, shards=2, ledger=_LEDGER)
            ) as warm_service:
                warm = warm_service.submit(
                    dexfiles["Meituan"], config, label="shared_cache_warm"
                )
        identical &= cold.build.oat.to_bytes() == reference
        identical &= warm.build.oat.to_bytes() == reference

        return blind_s, shared_rate, shared_s, shared_lookups, identical

    blind_s, shared_rate, shared_s, lookups, identical = benchmark.pedantic(
        measure, rounds=1, iterations=1
    )

    table = format_table(
        ["executor cache", "requests", "warm hit rate", "seconds"],
        [
            ["none (cache-blind)", str(_REQUESTS), "0.00", f"{blind_s:.3f}"],
            [
                f"shared disk (x{_SHARDS} shards)",
                str(_REQUESTS),
                f"{shared_rate:.2f}",
                f"{shared_s:.3f}",
            ],
        ],
    )
    emit(
        "shared_cache",
        f"Zipf-reuse stream, fresh shard executors per request "
        f"(scale {_SCALE}, K={PLOPTI_GROUPS}, {lookups} shared lookups):\n"
        f"{table}\n"
        f"group results byte-identical across cache modes: {identical}",
    )

    assert identical, "shared-cache group results diverged from cache-blind"
    # The tentpole claim: cross-shard/cross-request reuse that cache-blind
    # children cannot have.  Zero means sharing bought nothing.
    assert shared_rate > 0.0, f"shared warm hit rate {shared_rate:.2f} is zero"

    # The ledger trajectory flows through the CI gate: wall gating off
    # (real timings jitter across hosts), size and hit-rate rules live.
    gate = _load_gate()
    report = io.StringIO()
    assert gate.run_gate(str(_LEDGER), min_seconds=1e9, out=report) == 0, (
        report.getvalue()
    )
