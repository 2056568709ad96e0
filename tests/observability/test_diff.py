"""Trace/ledger diffing and the regression rules."""

from __future__ import annotations

import pytest

from repro.observability import (
    Delta,
    DiffReport,
    LedgerEntry,
    Span,
    Trace,
    diff_entries,
    diff_traces,
)


def _trace(durations: dict[str, float], counters: dict[str, int] | None = None):
    spans = [
        Span(name=name, start=0.0, duration=seconds)
        for name, seconds in durations.items()
    ]
    return Trace(spans=spans, counters=dict(counters or {}), gauges={}, meta={})


def _entry(after=8000, wall=1.0, before=10000):
    return LedgerEntry(config="c", text_size_before=before,
                       text_size_after=after, wall_seconds=wall)


# -- Delta ------------------------------------------------------------------


def test_delta_ratio_handles_zero_baselines():
    assert Delta("x", 2.0, 3.0).ratio == pytest.approx(0.5)
    assert Delta("x", 0.0, 0.0).ratio == 0.0
    assert Delta("x", 0.0, 1.0).ratio == float("inf")


# -- trace diffing ----------------------------------------------------------


def test_identical_traces_have_no_regressions():
    trace = _trace({"build": 1.0, "build.link": 0.2},
                   {"link.text_bytes": 5000})
    report = diff_traces(trace, trace)
    assert not report.has_regressions
    assert report.regression_list() == []


def test_slower_phase_beyond_threshold_and_floor_is_flagged():
    before = _trace({"build": 1.0})
    after = _trace({"build": 1.5})
    report = diff_traces(before, after, threshold=0.05)
    [delta] = report.regression_list()
    assert delta.name == "build"
    assert "REGRESSION" in report.render()


def test_small_absolute_growth_is_noise_not_regression():
    """A 50% swing on a 3 ms phase stays under the min_seconds floor."""
    report = diff_traces(_trace({"tiny": 0.003}), _trace({"tiny": 0.0045}))
    assert not report.has_regressions
    # ... but an explicit floor of zero restores pure-relative gating.
    strict = diff_traces(_trace({"tiny": 0.003}), _trace({"tiny": 0.0045}),
                         min_seconds=0.0)
    assert strict.has_regressions


def test_phase_present_on_one_side_only_is_reported_not_flagged():
    report = diff_traces(_trace({"build": 1.0}),
                         _trace({"build": 1.0, "extra": 9.0}))
    assert not report.has_regressions
    names = [d.name for d in report.phases]
    assert "extra" in names


def test_text_growth_is_a_size_regression():
    before = _trace({}, {"link.text_bytes": 10000})
    after = _trace({}, {"link.text_bytes": 11000})
    report = diff_traces(before, after)
    [delta] = report.regression_list()
    assert delta.name == "link.text_bytes"
    # Growth within the threshold is fine.
    ok = diff_traces(before, _trace({}, {"link.text_bytes": 10300}))
    assert not ok.has_regressions


def test_bytes_saved_shrinkage_is_a_size_regression():
    before = _trace({}, {"ltbo.bytes_saved": 2000})
    after = _trace({}, {"ltbo.bytes_saved": 1000})
    report = diff_traces(before, after)
    assert [d.name for d in report.regression_list()] == ["ltbo.bytes_saved"]


def test_repeated_spans_are_summed_per_name():
    before = Trace(
        spans=[Span(name="ltbo.group", start=0.0, duration=1.0),
               Span(name="ltbo.group", start=0.0, duration=1.0)],
        counters={}, gauges={}, meta={},
    )
    report = diff_traces(before, before)
    [group] = [d for d in report.phases if d.name == "ltbo.group"]
    assert group.before == pytest.approx(2.0)


# -- ledger diffing ---------------------------------------------------------


def test_identical_entries_have_no_regressions():
    entry = _entry()
    assert not diff_entries(entry, entry).has_regressions


def test_bigger_text_and_smaller_reduction_are_flagged():
    report = diff_entries(_entry(after=8000), _entry(after=9500))
    names = [d.name for d in report.regression_list()]
    assert "text_size_after" in names
    assert "reduction" in names


def test_slower_wall_time_is_flagged_with_floor():
    report = diff_entries(_entry(wall=1.0), _entry(wall=1.5))
    assert [d.name for d in report.regression_list()] == ["wall_seconds"]
    noisy = diff_entries(_entry(wall=0.010), _entry(wall=0.015))
    assert not noisy.has_regressions


def test_render_is_readable():
    report = diff_entries(_entry(after=8000, wall=1.0),
                          _entry(after=9500, wall=1.5))
    text = report.render()
    assert "compare (ledger)" in text
    assert "wall_seconds" in text and "text_size_after" in text
    assert text.count("REGRESSION") == 3


def test_report_kinds():
    assert isinstance(diff_traces(_trace({}), _trace({})), DiffReport)
    assert diff_traces(_trace({}), _trace({})).kind == "trace"
    assert diff_entries(_entry(), _entry()).kind == "ledger"


def test_graph_deltas_are_gated_when_both_sides_carry_them():
    """``calibro compare`` on two incremental entries flags a grown
    rebuild set and a slower delta; entries without graph accounting
    are untouched."""
    lean = _entry()
    lean_graph = LedgerEntry(
        config="c", text_size_before=10000, text_size_after=8000,
        wall_seconds=1.0, graph={"nodes_rebuilt": 2, "seconds": 0.5},
    )
    fat_graph = LedgerEntry(
        config="c", text_size_before=10000, text_size_after=8000,
        wall_seconds=1.0, graph={"nodes_rebuilt": 40, "seconds": 2.0},
    )
    report = diff_entries(lean_graph, fat_graph)
    names = [d.name for d in report.regression_list()]
    assert "graph.nodes_rebuilt" in names
    assert "graph.delta_seconds" in names
    # One side without accounting -> no graph deltas at all.
    one_sided = diff_entries(lean, fat_graph)
    assert not any(d.name.startswith("graph.") for d in one_sided.phases + one_sided.sizes)


def test_cache_hit_rate_is_gated_when_both_sides_have_traffic():
    """A warm build quietly going cold (broken shared cache, key drift,
    over-eager eviction) regresses the derived hit-rate ratio; a cold
    baseline with zero traffic gates nothing."""
    def traffic(hits, misses):
        return LedgerEntry(
            config="c", text_size_before=10000,
            text_size_after=8000, wall_seconds=1.0,
            cache_hits=hits, cache_misses=misses,
        )

    went_cold = diff_entries(traffic(9, 1), traffic(1, 9))
    assert "service.cache.hit_rate" in [d.name for d in went_cold.regression_list()]
    # Warming up is an improvement, not a regression.
    warmed = diff_entries(traffic(1, 9), traffic(9, 1))
    assert not warmed.has_regressions
    # Jitter inside the threshold passes.
    steady = diff_entries(traffic(90, 10), traffic(89, 11))
    assert not steady.has_regressions
    # Zero traffic on either side: the ratio is not even reported.
    untraded = diff_entries(_entry(), traffic(1, 9))
    assert "service.cache.hit_rate" not in [
        d.name for d in untraded.phases + untraded.sizes
    ]
