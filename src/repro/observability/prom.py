"""Prometheus text exposition of a trace's registries.

``calibro serve --metrics-file metrics.prom`` keeps a long-running
service scrapable: after every build (and once more at shutdown) the
tracer's counters, gauges and histograms are rendered in the Prometheus
text exposition format (version 0.0.4) and atomically swapped into the
target file — point a node-exporter ``textfile`` collector (or any
scraper of the format) at it.

Name mapping is mechanical: every registry name is prefixed with
``calibro_`` and every non-``[a-zA-Z0-9_]`` character becomes ``_``
(``service.cache.hits`` → ``calibro_service_cache_hits``), so the
reference tables in ``docs/observability.md`` cover both spellings.
Histograms expose the classic triplet — cumulative ``_bucket{le="..."}``
series over the shared :data:`~repro.observability.trace.
HISTOGRAM_BOUNDS`, ``_sum`` and ``_count``.
"""

from __future__ import annotations

import os
import re

from repro.observability.trace import HISTOGRAM_BOUNDS, Trace

__all__ = ["PromReporter", "format_labels", "prom_name", "render_prometheus"]

_INVALID = re.compile(r"[^a-zA-Z0-9_]")


def prom_name(name: str) -> str:
    """The Prometheus metric name for one registry name."""
    return "calibro_" + _INVALID.sub("_", name)


def _escape_label(value: str) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def format_labels(labels: dict[str, str]) -> str:
    """Render one ``{k="v",...}`` label set (escaped, key-sorted)."""
    inner = ",".join(
        f'{key}="{_escape_label(labels[key])}"' for key in sorted(labels)
    )
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _format_bound(bound: float) -> str:
    return repr(bound)


def render_prometheus(
    trace: Trace,
    *,
    info: "dict[str, str] | None" = None,
    extra_lines: "tuple[str, ...] | list[str]" = (),
) -> str:
    """Render a trace's counters/gauges/histograms as exposition text.

    ``info`` adds the static ``calibro_build_info`` labelset (value
    always ``1`` — the node-exporter ``build_info`` idiom: package and
    protocol version travel as labels, so a scraper can join them onto
    any series).  ``extra_lines`` appends caller-rendered
    exposition lines verbatim — the mechanism behind the serve front
    door's per-tenant labeled series, which have no place in the
    label-less registry model.
    """
    lines: list[str] = []
    if info:
        lines.append("# TYPE calibro_build_info gauge")
        lines.append(f"calibro_build_info{format_labels(info)} 1")
    for name in sorted(trace.counters):
        metric = prom_name(name)
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {_format_value(trace.counters[name])}")
    for name in sorted(trace.gauges):
        metric = prom_name(name)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {_format_value(trace.gauges[name])}")
    for name in sorted(trace.histograms):
        metric = prom_name(name)
        hist = trace.histograms[name]
        lines.append(f"# TYPE {metric} histogram")
        cumulative = 0
        for index, bound in enumerate(HISTOGRAM_BOUNDS):
            cumulative += hist.counts[index]
            lines.append(
                f'{metric}_bucket{{le="{_format_bound(bound)}"}} {cumulative}'
            )
        lines.append(f'{metric}_bucket{{le="+Inf"}} {hist.count}')
        lines.append(f"{metric}_sum {_format_value(hist.sum)}")
        lines.append(f"{metric}_count {hist.count}")
    lines.extend(extra_lines)
    return "\n".join(lines) + "\n"


class PromReporter:
    """Writes the exposition text to a file on :meth:`emit`.

    The write is atomic (temp file + rename) so a scraper never reads a
    half-written exposition.  ``info`` (static labels for
    ``calibro_build_info``) is stamped into every exposition;
    ``extra_source`` — a zero-argument callable returning exposition
    lines — is polled at every emit (the serve front door hangs its
    per-tenant labeled series on it).
    """

    def __init__(
        self,
        path: str,
        *,
        info: "dict[str, str] | None" = None,
        extra_source=None,
    ):
        self.path = path
        self.info = info
        self.extra_source = extra_source

    def emit(self, trace: Trace) -> None:
        extra = tuple(self.extra_source()) if self.extra_source is not None else ()
        tmp = f"{self.path}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(render_prometheus(trace, info=self.info, extra_lines=extra))
        os.replace(tmp, self.path)
