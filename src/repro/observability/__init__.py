"""Pipeline observability: spans, counters/gauges/histograms, trace
output, the cross-build ledger and the regression differ.

See ``docs/observability.md`` for the reference of every span, counter,
gauge, histogram, ledger field and Prometheus metric the pipeline
emits, and ``docs/architecture.md`` for where each instrumentation
point sits in the paper's Fig. 5 flow.

Typical use::

    from repro import observability as obs
    from repro.observability import render_text

    with obs.tracing() as tracer:
        build = build_app(dexfile, CalibroConfig.cto_ltbo())
    print(render_text(tracer.snapshot()))

Library code instruments itself with the module-level helpers
(:func:`span`, :func:`counter_add`, :func:`histogram_observe`, ...),
which are near-zero-cost no-ops unless a tracer is installed.  Durable
cross-build metrics live in :mod:`repro.observability.ledger`
(``calibro build --ledger`` / ``calibro history``), regression
comparison in :mod:`repro.observability.diff` (``calibro compare``)
and the scrape surface in :mod:`repro.observability.prom`
(``calibro serve --metrics-file``).
"""

from repro.observability.context import TraceContext
from repro.observability.trace import (
    HISTOGRAM_BOUNDS,
    Histogram,
    Span,
    TRACE_SCHEMA_VERSION,
    Trace,
    Tracer,
    counter_add,
    current_tracer,
    enabled,
    gauge_max,
    gauge_set,
    global_tracer,
    histogram_observe,
    install_tracer,
    set_disabled,
    span,
    thread_tracing,
    tracing,
    uninstall_tracer,
)
from repro.observability.chrome import chrome_events, trace_to_chrome, write_chrome
from repro.observability.report import load_trace, render_text, write_json
from repro.observability.diff import (
    DEFAULT_THRESHOLD,
    Delta,
    DiffReport,
    diff_entries,
    diff_traces,
)
from repro.observability.ledger import (
    LEDGER_SCHEMA_VERSION,
    BuildLedger,
    LedgerEntry,
    entry_from_build,
    trace_digest,
)
from repro.observability.prom import PromReporter, prom_name, render_prometheus

__all__ = [
    "BuildLedger",
    "DEFAULT_THRESHOLD",
    "Delta",
    "DiffReport",
    "HISTOGRAM_BOUNDS",
    "Histogram",
    "LEDGER_SCHEMA_VERSION",
    "LedgerEntry",
    "PromReporter",
    "Span",
    "TRACE_SCHEMA_VERSION",
    "Trace",
    "TraceContext",
    "Tracer",
    "chrome_events",
    "counter_add",
    "current_tracer",
    "diff_entries",
    "diff_traces",
    "enabled",
    "entry_from_build",
    "gauge_max",
    "gauge_set",
    "global_tracer",
    "histogram_observe",
    "install_tracer",
    "load_trace",
    "prom_name",
    "render_prometheus",
    "render_text",
    "set_disabled",
    "span",
    "thread_tracing",
    "trace_digest",
    "trace_to_chrome",
    "tracing",
    "uninstall_tracer",
    "write_chrome",
    "write_json",
]
