"""Pure measurement rules shared by every workload.

Kept free of I/O and of the program under test, so the self-tests in
``perfbench/tests`` can pin each rule on hand-made inputs.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Iterable, Sequence

#: A percentile is reported only when at least this many samples lie
#: beyond it; with fewer, one slow request would decide the value.
MIN_BEYOND = 10

#: Request outcomes.  Everything but ``ok`` counts as a failure and as an
#: infinitely slow request in the latency percentiles.
OK, REFUSED, ERRORED, WRONG = "ok", "refused", "errored", "wrong"
OUTCOMES = (OK, REFUSED, ERRORED, WRONG)


def min_samples(q: float) -> int:
    """Fewest samples for which the ``q`` quantile has ``MIN_BEYOND``
    samples strictly beyond its rank."""
    n = MIN_BEYOND
    while samples_beyond(n, q) < MIN_BEYOND:
        n += 1
    return n


def samples_beyond(n: int, q: float) -> int:
    """Samples ranked after the nearest-rank ``q`` quantile of ``n``."""
    return n - max(1, math.ceil(round(q * n, 9)))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q`` quantile (0 < q < 1) of ``values``.

    Raises ``ValueError`` when fewer than ``MIN_BEYOND`` samples lie
    beyond the rank, so a run too short for its percentile fails loudly
    instead of reporting its slowest request.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile must be in (0, 1), got {q}")
    n = len(values)
    if samples_beyond(n, q) < MIN_BEYOND:
        raise ValueError(
            f"p{q * 100:g} needs {min_samples(q)} samples, got {n}"
        )
    ordered = sorted(values)
    return ordered[max(1, math.ceil(round(q * n, 9))) - 1]


def request_latencies(records: Iterable[tuple[str, float]]) -> list[float]:
    """Latencies for the percentile rule: a failed request of any kind
    counts as ``+inf`` (it missed every latency limit)."""
    return [seconds if outcome == OK else math.inf for outcome, seconds in records]


@dataclass(frozen=True)
class FailureSummary:
    attempted: int
    refused: int
    errored: int
    wrong: int

    @property
    def failed(self) -> int:
        return self.refused + self.errored + self.wrong

    @property
    def ok_pct(self) -> float:
        return 100.0 * (self.attempted - self.failed) / self.attempted

    @property
    def failed_pct(self) -> float:
        return 100.0 * self.failed / self.attempted


def summarize_outcomes(outcomes: Iterable[str]) -> FailureSummary:
    """Count attempted requests by outcome; unknown outcomes raise."""
    counts = dict.fromkeys(OUTCOMES, 0)
    for outcome in outcomes:
        if outcome not in counts:
            raise ValueError(f"unknown outcome {outcome!r}")
        counts[outcome] += 1
    attempted = sum(counts.values())
    if attempted == 0:
        raise ValueError("no request was attempted")
    return FailureSummary(
        attempted=attempted,
        refused=counts[REFUSED],
        errored=counts[ERRORED],
        wrong=counts[WRONG],
    )


def covered_length(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``
    (each clipped to the window first), so overlapping children are not
    subtracted twice."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo)
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: Sequence[dict]) -> list[float]:
    """Self time of each span: its duration minus the part of it that
    its children cover.  A span is a dict with ``id``, ``parent``,
    ``pid``, ``start`` and ``end``; children are matched by
    ``(pid, parent)``."""
    children: dict[tuple[int, int], list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault((span["pid"], span["parent"]), []).append(
                (span["start"], span["end"])
            )
    out = []
    for span in spans:
        kids = children.get((span["pid"], span["id"]), ())
        covered = covered_length(kids, span["start"], span["end"])
        out.append(span["end"] - span["start"] - covered)
    return out


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0
