"""Trace output: JSON persistence and the text phase tree.

:func:`write_json` writes what ``calibro build --trace out.json``
saves; :func:`render_text` renders what ``calibro trace out.json``
prints: a nested phase tree with durations and percentages, followed
by the counter/gauge registries.
"""

from __future__ import annotations

import json

from repro.observability.trace import Span, Trace

__all__ = ["load_trace", "render_text", "write_json"]


def write_json(trace: Trace, path: str) -> None:
    """Persist a trace as JSON (round-trips through :func:`load_trace`)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(trace.to_dict(), fh, indent=1)
        fh.write("\n")


def load_trace(path: str) -> Trace:
    """Load a trace previously written by :func:`write_json`."""
    with open(path, encoding="utf-8") as fh:
        return Trace.from_dict(json.load(fh))


def _format_seconds(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:8.3f}s"
    return f"{seconds * 1e3:7.2f}ms"


def _attr_suffix(span: Span) -> str:
    if not span.attrs:
        return ""
    inner = ", ".join(f"{k}={v}" for k, v in span.attrs.items())
    return f" [{inner}]"


def _render_span(
    span: Span, total: float, prefix: str, is_last: bool, lines: list[str], depth: int
) -> None:
    connector = "" if depth == 0 else ("└─ " if is_last else "├─ ")
    label = f"{prefix}{connector}{span.name}{_attr_suffix(span)}"
    percent = 100.0 * span.duration / total if total > 0 else 0.0
    lines.append(f"{label:<52} {_format_seconds(span.duration)} {percent:6.1f}%")
    child_prefix = prefix if depth == 0 else prefix + ("   " if is_last else "│  ")
    for i, child in enumerate(span.children):
        _render_span(
            child, total, child_prefix, i == len(span.children) - 1, lines, depth + 1
        )


def render_text(trace: Trace, *, counters: bool = True) -> str:
    """Render a trace as a phase tree with percentages of the root total.

    The shape ``calibro trace`` prints::

        build                                 1.234s  100.0%
        ├─ build.dex2oat                      0.456s   37.0%
        │  └─ dex2oat.codegen                 0.400s   32.4%
        └─ build.ltbo                         0.650s   52.7%
    """
    lines: list[str] = []
    total = trace.total_seconds
    for root in trace.spans:
        _render_span(root, total, "", True, lines, 0)
    if not trace.spans:
        lines.append("(no spans recorded)")
    if counters and (trace.counters or trace.gauges or trace.histograms):
        lines.append("")
        if trace.counters:
            lines.append("counters:")
            width = max(len(k) for k in trace.counters)
            for name in sorted(trace.counters):
                lines.append(f"  {name:<{width}}  {trace.counters[name]:>14,}")
        if trace.gauges:
            lines.append("gauges:")
            width = max(len(k) for k in trace.gauges)
            for name in sorted(trace.gauges):
                value = trace.gauges[name]
                rendered = f"{value:,.0f}" if float(value).is_integer() else f"{value:,.3f}"
                lines.append(f"  {name:<{width}}  {rendered:>14}")
        if trace.histograms:
            lines.append("histograms:")
            width = max(len(k) for k in trace.histograms)
            for name in sorted(trace.histograms):
                hist = trace.histograms[name]
                lines.append(
                    f"  {name:<{width}}  n={hist.count:<8,} "
                    f"p50={_sig(hist.p50)} p90={_sig(hist.p90)} "
                    f"p99={_sig(hist.p99)} max={_sig(hist.max)}"
                )
    return "\n".join(lines)


def _sig(value: float) -> str:
    """Compact 4-significant-digit rendering for histogram summaries."""
    return f"{value:.4g}"
