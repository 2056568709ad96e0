"""Trace/ledger diffing — the regression gate behind ``calibro compare``.

Two builds are compared on the two axes the paper trades off: *where
the time went* (phase-level span durations) and *what it bought*
(size counters / ledger size fields).  A delta beyond the threshold on
the bad side — slower phases, bigger text, smaller reduction — is a
**regression**; ``calibro compare`` exits non-zero when any survive,
so a ledger plus one CLI call gates CI.

Duration regressions additionally require an absolute floor
(``min_seconds``, default 50 ms): identical builds re-measured on a
noisy host jitter by whole percents, and a 5% swing on a 3 ms phase is
measurement noise, not a regression.  Size deltas have no floor — byte
counts are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.observability.ledger import LedgerEntry
from repro.observability.trace import Span, Trace

__all__ = ["DEFAULT_THRESHOLD", "Delta", "DiffReport", "diff_entries", "diff_traces"]

#: Default regression threshold: 5% on the bad side.
DEFAULT_THRESHOLD = 0.05

#: Ignore duration growth below this many absolute seconds.
DEFAULT_MIN_SECONDS = 0.05

#: Counters where *growth* beyond the threshold is a regression.
_SIZE_UP_IS_BAD = ("link.text_bytes", "link.data_bytes")

#: Counters where *shrinkage* beyond the threshold is a regression.
_SIZE_DOWN_IS_BAD = ("ltbo.bytes_saved", "cto.bytes_saved", "merge.saved_bytes")


@dataclass(frozen=True)
class Delta:
    """One compared metric."""

    name: str
    before: float
    after: float
    #: Set when this delta crossed the regression threshold.
    regression: bool = False

    @property
    def delta(self) -> float:
        return self.after - self.before

    @property
    def ratio(self) -> float:
        """Relative change (+0.05 = 5% growth); 0 when both are zero."""
        if self.before == 0:
            return 0.0 if self.after == 0 else float("inf")
        return self.after / self.before - 1.0


@dataclass
class DiffReport:
    """The result of one comparison (render with :meth:`render`)."""

    kind: str
    threshold: float
    phases: list[Delta] = field(default_factory=list)
    sizes: list[Delta] = field(default_factory=list)

    def render(self) -> str:
        lines = [
            f"compare ({self.kind}): threshold {self.threshold:.1%}, "
            f"{len(self.regression_list())} regression(s)"
        ]
        if self.phases:
            lines.append("")
            lines.append(self._table("phase seconds", self.phases, _fmt_seconds))
        if self.sizes:
            lines.append("")
            lines.append(self._table("size metrics", self.sizes, _fmt_number))
        return "\n".join(lines)

    def regression_list(self) -> list[Delta]:
        return [d for d in self.phases + self.sizes if d.regression]

    @property
    def has_regressions(self) -> bool:
        return any(d.regression for d in self.phases + self.sizes)

    @staticmethod
    def _table(title: str, deltas: list[Delta], fmt) -> str:
        width = max(len(d.name) for d in deltas)
        lines = [f"{title}:"]
        for d in deltas:
            ratio = "   n/a" if d.ratio == float("inf") else f"{d.ratio:+6.1%}"
            flag = "  REGRESSION" if d.regression else ""
            lines.append(
                f"  {d.name:<{width}}  {fmt(d.before):>12} -> {fmt(d.after):>12}"
                f"  {ratio}{flag}"
            )
        return "\n".join(lines)


def _fmt_seconds(value: float) -> str:
    return f"{value * 1e3:.2f}ms" if value < 1.0 else f"{value:.3f}s"


def _fmt_number(value: float) -> str:
    if float(value).is_integer():
        return f"{int(value):,}"
    return f"{value:.4g}"


def _phase_durations(trace: Trace) -> dict[str, float]:
    """Total seconds per span name (repeated spans — e.g. one
    ``ltbo.group`` per partition — are summed)."""
    totals: dict[str, float] = {}

    def walk(span: Span) -> None:
        totals[span.name] = totals.get(span.name, 0.0) + span.duration
        for child in span.children:
            walk(child)

    for root in trace.spans:
        walk(root)
    return totals


def diff_traces(
    before: Trace,
    after: Trace,
    *,
    threshold: float = DEFAULT_THRESHOLD,
    min_seconds: float = DEFAULT_MIN_SECONDS,
) -> DiffReport:
    """Phase-duration and size-counter deltas between two traces.

    Phases present in only one trace are reported with the other side
    at zero but never flagged (a missing phase is a shape change the
    human reads, not a timing regression).
    """
    report = DiffReport(kind="trace", threshold=threshold)
    a, b = _phase_durations(before), _phase_durations(after)
    for name in sorted(set(a) | set(b)):
        dur_a, dur_b = a.get(name, 0.0), b.get(name, 0.0)
        regression = (
            name in a
            and name in b
            and dur_b > dur_a * (1.0 + threshold)
            and dur_b - dur_a >= min_seconds
        )
        report.phases.append(Delta(name, dur_a, dur_b, regression))
    for name in _SIZE_UP_IS_BAD:
        if name in before.counters or name in after.counters:
            va = float(before.counters.get(name, 0))
            vb = float(after.counters.get(name, 0))
            report.sizes.append(Delta(name, va, vb, vb > va * (1.0 + threshold)))
    for name in _SIZE_DOWN_IS_BAD:
        if name in before.counters or name in after.counters:
            va = float(before.counters.get(name, 0))
            vb = float(after.counters.get(name, 0))
            report.sizes.append(Delta(name, va, vb, vb < va * (1.0 - threshold)))
    return report


def diff_entries(
    before: LedgerEntry,
    after: LedgerEntry,
    *,
    threshold: float = DEFAULT_THRESHOLD,
    min_seconds: float = DEFAULT_MIN_SECONDS,
) -> DiffReport:
    """Wall-time and size deltas between two ledger entries."""
    report = DiffReport(kind="ledger", threshold=threshold)
    report.phases.append(
        Delta(
            "wall_seconds",
            before.wall_seconds,
            after.wall_seconds,
            after.wall_seconds > before.wall_seconds * (1.0 + threshold)
            and after.wall_seconds - before.wall_seconds >= min_seconds,
        )
    )
    report.sizes.append(
        Delta(
            "text_size_after",
            float(before.text_size_after),
            float(after.text_size_after),
            after.text_size_after > before.text_size_after * (1.0 + threshold),
        )
    )
    report.sizes.append(
        Delta(
            "reduction",
            before.reduction,
            after.reduction,
            after.reduction < before.reduction * (1.0 - threshold)
            and before.reduction > 0,
        )
    )
    # Incremental delta-build gating: when both entries carry graph
    # accounting (same label/config re-built over time), growth in the
    # re-executed node count is a regression — an invalidation bug or a
    # broken cache turns cheap deltas back into full rebuilds long
    # before wall time noticeably degrades on small apps.
    if before.graph and after.graph:
        nodes_before = float(before.graph.get("nodes_rebuilt", 0))
        nodes_after = float(after.graph.get("nodes_rebuilt", 0))
        report.sizes.append(
            Delta(
                "graph.nodes_rebuilt",
                nodes_before,
                nodes_after,
                nodes_after > nodes_before * (1.0 + threshold),
            )
        )
        report.phases.append(
            Delta(
                "graph.delta_seconds",
                float(before.graph.get("seconds", 0.0)),
                float(after.graph.get("seconds", 0.0)),
                float(after.graph.get("seconds", 0.0))
                > float(before.graph.get("seconds", 0.0)) * (1.0 + threshold)
                and float(after.graph.get("seconds", 0.0))
                - float(before.graph.get("seconds", 0.0))
                >= min_seconds,
            )
        )
    # Cache-efficiency gating: when both entries actually exercised the
    # outline cache (lookups on both sides — a cold baseline with zero
    # traffic gates nothing), the hit rate shrinking beyond the
    # threshold is a regression: a key-derivation change, a broken
    # disk tier or an over-eager eviction quietly turns warm
    # rebuilds back into cold ones long before wall time moves on small
    # apps.  `service.cache.hit_rate` is a derived ratio in [0, 1], not
    # an emitted counter.
    lookups_before = before.cache_hits + before.cache_misses
    lookups_after = after.cache_hits + after.cache_misses
    if lookups_before > 0 and lookups_after > 0:
        rate_before = before.cache_hits / lookups_before
        rate_after = after.cache_hits / lookups_after
        report.sizes.append(
            Delta(
                "service.cache.hit_rate",
                rate_before,
                rate_after,
                rate_after < rate_before * (1.0 - threshold) and rate_before > 0,
            )
        )
    # Merging gating: when both entries carry merge accounting, the
    # saved bytes shrinking beyond the threshold is a regression — a
    # fold/similarity detector quietly losing groups shows up here
    # before the total text size (which outlining dominates) moves.
    if before.merge and after.merge:
        saved_before = float(before.merge.get("saved_bytes", 0))
        saved_after = float(after.merge.get("saved_bytes", 0))
        report.sizes.append(
            Delta(
                "merge.saved_bytes",
                saved_before,
                saved_after,
                saved_after < saved_before * (1.0 - threshold)
                and saved_before > 0,
            )
        )
    return report
