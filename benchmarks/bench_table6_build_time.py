"""Table 6 — building time under the optimization stacks.

Paper: the single-global-suffix-tree CTO+LTBO slows builds by 489.5% on
average; PlOpti (partitioned trees) cuts that to 70.8%.  Expected shape
here: LTBO adds a large relative overhead over the baseline build, and
PlOpti reduces that overhead substantially.  The absolute factor differs
from the paper: apps here have ~10⁴ symbols (see DESIGN.md), so PlOpti's
win can only come from the smaller working set / candidate set of K
small trees and from running them in worker processes when CPUs exist;
EXPERIMENTS.md records what a 2-CPU host measures.
"""

from __future__ import annotations

from repro import observability as obs
from repro.core import CalibroConfig, build_app
from repro.reporting import format_table, pct

from repro.workloads import app_spec, generate_app

from _bench_util import BENCH_SCALE, PLOPTI_GROUPS, emit

#: The working-set effect needs enough symbols to show; build-time apps
#: are generated at a larger dedicated scale.
_BUILD_SCALE = max(1.0, BENCH_SCALE)


def _measure(dexfile, config) -> tuple[float, float]:
    """(total build seconds, ltbo phase seconds) — best of two runs, to
    damp container timing noise.

    Both numbers come from the observability spans (``build`` /
    ``build.ltbo``) — the same source of truth ``calibro build --trace``
    writes, so this table reconciles with user-facing traces.
    """
    samples = []
    for _ in range(2):
        with obs.tracing():
            build = build_app(dexfile, config)
        trace = build.trace
        assert trace is not None
        ltbo_span = trace.find("build.ltbo")
        samples.append(
            (
                trace.find("build").duration,
                ltbo_span.duration if ltbo_span is not None else 0.0,
            )
        )
    return min(s[0] for s in samples), min(s[1] for s in samples)


def test_table6_build_time(benchmark, suite, app_names):
    def measure_all():
        times = {"baseline": {}, "CTO+LTBO": {}, "CTO+LTBO+PlOpti": {}}
        ltbo = {"CTO+LTBO": {}, "CTO+LTBO+PlOpti": {}}
        for name in app_names:
            dexfile = generate_app(app_spec(name, _BUILD_SCALE)).dexfile
            times["baseline"][name], _ = _measure(dexfile, CalibroConfig.baseline())
            times["CTO+LTBO"][name], ltbo["CTO+LTBO"][name] = _measure(
                dexfile, CalibroConfig.cto_ltbo()
            )
            times["CTO+LTBO+PlOpti"][name], ltbo["CTO+LTBO+PlOpti"][name] = _measure(
                dexfile, CalibroConfig.cto_ltbo_plopti(PLOPTI_GROUPS)
            )
        measure_all.ltbo = ltbo
        return times

    times = benchmark.pedantic(measure_all, rounds=1, iterations=1)

    def growth(cfg: str, name: str) -> float:
        return times[cfg][name] / times["baseline"][name] - 1.0

    rows = [
        [cfg] + [f"{times[cfg][n]:.2f}s" for n in app_names] + ["/"]
        for cfg in ("baseline", "CTO+LTBO", "CTO+LTBO+PlOpti")
    ]
    for cfg in ("CTO+LTBO", "CTO+LTBO+PlOpti"):
        growths = [growth(cfg, n) for n in app_names]
        rows.append(
            [cfg]
            + [pct(g, 0) for g in growths]
            + [pct(sum(growths) / len(growths), 1)]
        )
    # The outlining phase in isolation (where the tree lives): this is
    # the component the paper's optimization targets.
    ltbo = measure_all.ltbo
    for cfg in ("CTO+LTBO", "CTO+LTBO+PlOpti"):
        rows.append(
            [f"{cfg} (LTBO phase)"]
            + [f"{ltbo[cfg][n]:.2f}s" for n in app_names]
            + [f"{sum(ltbo[cfg].values()):.2f}s"]
        )
    emit(
        "table6",
        format_table(
            ["", *app_names, "AVG"],
            rows,
            title=(
                "Table 6: building time "
                "(paper avg growth: CTO+LTBO +489.5%, +PlOpti +70.8%)"
            ),
        ),
    )

    avg_single = sum(growth("CTO+LTBO", n) for n in app_names) / len(app_names)
    avg_plopti = sum(growth("CTO+LTBO+PlOpti", n) for n in app_names) / len(app_names)
    # Shape: LTBO costs build time; the partitioned LTBO phase is cheaper
    # than the global tree's (the paper's factor needs million-symbol
    # working sets + 6 hardware threads; see EXPERIMENTS.md).
    assert avg_single > 0.0
    single_phase = sum(ltbo["CTO+LTBO"].values())
    parted_phase = sum(ltbo["CTO+LTBO+PlOpti"].values())
    assert parted_phase <= single_phase * 1.15
