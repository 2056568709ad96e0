"""The measurement rules: percentiles, self time, failure accounting."""

import math

import pytest

from perfbench import stats


def test_p90_needs_ten_samples_beyond():
    assert stats.min_samples(0.9) == 100
    assert stats.min_samples(0.5) == 20
    values = [float(i) for i in range(1, 101)]
    assert stats.percentile(values, 0.9) == 90.0
    assert stats.samples_beyond(100, 0.9) == 10
    with pytest.raises(ValueError, match="needs 100 samples"):
        stats.percentile(values[:99], 0.9)


def test_percentile_is_nearest_rank_and_order_free():
    values = [5.0, 1.0, 4.0, 2.0, 3.0] * 20
    assert stats.percentile(values, 0.5) == 3.0
    assert stats.percentile(sorted(values, reverse=True), 0.5) == 3.0


def test_failed_requests_count_as_infinitely_slow():
    records = [(stats.OK, 1.0)] * 95 + [(stats.REFUSED, 0.01)] * 3 + [
        (stats.ERRORED, 0.01), (stats.WRONG, 0.5)]
    latencies = stats.request_latencies(records)
    assert latencies.count(math.inf) == 5
    assert stats.percentile(latencies, 0.9) == 1.0
    # Eleven failures push p90 to +inf: a fast refusal is not a fast request.
    latencies += [math.inf] * 6
    assert stats.percentile(latencies, 0.9) == math.inf


def test_failure_accounting_by_kind():
    outcomes = [stats.OK] * 16 + [stats.REFUSED, stats.ERRORED, stats.WRONG, stats.WRONG]
    summary = stats.summarize_outcomes(outcomes)
    assert (summary.attempted, summary.refused, summary.errored, summary.wrong) == (20, 1, 1, 2)
    assert summary.failed == 4
    assert summary.failed_pct == pytest.approx(20.0)
    assert summary.ok_pct == pytest.approx(80.0)
    with pytest.raises(ValueError):
        stats.summarize_outcomes([])
    with pytest.raises(ValueError):
        stats.summarize_outcomes(["timeout"])


def _span(span_id, parent, start, end, pid=1):
    return {"id": span_id, "parent": parent, "pid": pid, "start": start, "end": end}


def test_self_time_subtracts_nested_children_once():
    spans = [
        _span(1, None, 0.0, 10.0),
        _span(2, 1, 1.0, 4.0),
        _span(3, 2, 2.0, 3.0),  # grandchild: covered by its parent, not by 1
        _span(4, 1, 6.0, 7.0),
    ]
    assert stats.self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_self_time_overlapping_children_and_clipping():
    spans = [
        _span(1, None, 0.0, 10.0),
        _span(2, 1, 1.0, 5.0),
        _span(3, 1, 3.0, 6.0),    # overlaps 2: union 1..6
        _span(4, 1, 9.0, 12.0),   # runs past its parent: clipped to 9..10
        _span(5, 1, 2.0, 3.0, pid=2),  # another process's span 1: not a child
    ]
    assert stats.self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_covered_length_merges_touching_intervals():
    assert stats.covered_length([(0, 1), (1, 2), (5, 6)], 0, 10) == pytest.approx(3.0)
    assert stats.covered_length([], 0, 10) == 0.0
