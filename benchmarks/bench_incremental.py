"""Incremental delta builds: the 1-method-diff rebuild speedup.

The build graph's economic claim: after one method changes, an
incremental ``BuildService`` re-executes only the moved nodes (one
method compile, one group mine) and splices every other outlined chunk
from cache — so the delta build must be **at least 5x faster** than a
from-scratch ``build_app`` of the same mutated app, while staying
*byte-identical* to it.  Identity is absolute; the 5x gate is
deliberately below the typically much larger measured factor
(single-core container timing noise; see DESIGN.md).

The service writes the run's seven ledger records (label
``incremental``) to the run's temporary directory, and the run then
replaces ``benchmarks/_artifacts/incremental_ledger.jsonl`` with them.
The tracked file therefore holds one run in the current ledger shape,
and ``scripts/ci_gate.py fresh.jsonl --baseline
benchmarks/_artifacts/incremental_ledger.jsonl`` gates another run's
delta accounting (``graph.nodes_rebuilt``, ``graph.delta_seconds``)
against it.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from pathlib import Path

from repro.core import CalibroConfig, build_app
from repro.reporting import format_table
from repro.service import BuildService, ServiceConfig
from repro.workloads import app_spec, generate_app, mutate_app

from _bench_util import BENCH_SCALE, PLOPTI_GROUPS, emit, _ARTIFACTS

#: Enough mining work that the scratch side has something to lose.
_SCALE = max(2.0, BENCH_SCALE)
_APP = "Taobao"
_MIN_SPEEDUP = 5.0
#: Alternation rounds — both sides take their best time, so container
#: scheduling noise has to hit every round to skew the ratio.
_ROUNDS = 3
_LEDGER = _ARTIFACTS / "incremental_ledger.jsonl"


def test_one_method_diff_rebuild_speedup(benchmark):
    def measure():
        dexfile = generate_app(app_spec(_APP, _SCALE)).dexfile
        edited, mutation = mutate_app(dexfile, seed=17, kind="edit")
        config = CalibroConfig.cto_ltbo_plopti(groups=PLOPTI_GROUPS)
        _ARTIFACTS.mkdir(exist_ok=True)
        scratch_s = delta_s = float("inf")
        with tempfile.TemporaryDirectory(prefix="calibro-bench-incr-") as tmp:
            ledger = Path(tmp) / "ledger.jsonl"
            with BuildService(ServiceConfig(cache_dir=Path(tmp) / "cache",
                                            incremental=True, max_workers=1,
                                            ledger=ledger)) as service:
                t0 = time.perf_counter()
                cold = service.submit(dexfile, config, label="incremental")
                cold_s = time.perf_counter() - t0

                t0 = time.perf_counter()
                scratch = build_app(edited, config)
                scratch_s = time.perf_counter() - t0

                # Alternate base <-> edited: every delta re-executes the
                # same one-method diff (forward or backward), never a
                # no-op rebuild.
                delta = None
                for _ in range(_ROUNDS):
                    t0 = time.perf_counter()
                    delta = service.submit(edited, config, label="incremental")
                    delta_s = min(delta_s, time.perf_counter() - t0)
                    service.submit(dexfile, config, label="incremental")
                t0 = time.perf_counter()
                build_app(edited, config)
                scratch_s = min(scratch_s, time.perf_counter() - t0)
            shutil.copyfile(ledger, _LEDGER)

        identical = delta.build.oat.to_bytes() == scratch.oat.to_bytes()
        return (mutation, cold_s, scratch_s, delta_s, identical,
                cold.graph.as_dict(), delta.graph.as_dict())

    (mutation, cold_s, scratch_s, delta_s, identical,
     cold_graph, delta_graph) = benchmark.pedantic(measure, rounds=1, iterations=1)

    speedup = scratch_s / delta_s if delta_s > 0 else float("inf")
    table = format_table(
        ["build", "seconds", "nodes rebuilt", "nodes reused"],
        [
            ["cold (graph)", f"{cold_s:.3f}",
             str(cold_graph["nodes_rebuilt"]), str(cold_graph["nodes_reused"])],
            ["scratch (build_app)", f"{scratch_s:.3f}", "-", "-"],
            ["delta (graph)", f"{delta_s:.3f}",
             str(delta_graph["nodes_rebuilt"]), str(delta_graph["nodes_reused"])],
        ],
    )
    emit(
        "incremental",
        f"1-method-diff rebuild ({_APP} at scale {_SCALE}, "
        f"K={PLOPTI_GROUPS}, {mutation}):\n{table}\n"
        f"delta vs scratch: {speedup:.1f}x, byte-identical: {identical}",
    )

    assert identical, "delta build output diverged from the from-scratch build"
    assert not delta_graph["full_rebuild"]
    assert delta_graph["methods_rebuilt"] == 1, delta_graph
    assert speedup >= _MIN_SPEEDUP, (
        f"1-method delta rebuild only {speedup:.1f}x faster than scratch "
        f"(scratch {scratch_s:.3f}s, delta {delta_s:.3f}s); "
        f"expected >= {_MIN_SPEEDUP}x"
    )
