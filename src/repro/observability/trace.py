"""Spans, counters and gauges — the tracing substrate.

The evaluation story of the paper is entirely about *measuring* the
pipeline (Table 6 build-time overhead, the PlOpti 489.5% → 70.8%
trade-off, Table 5 memory), so the pipeline carries first-class
instrumentation instead of ad-hoc ``time.perf_counter()`` bookkeeping:

* :func:`span` — a nested context manager recording monotonic wall time
  into the active :class:`Tracer` (``with span("ltbo.outline",
  group=k): ...``);
* :func:`counter_add` / :func:`gauge_set` / :func:`gauge_max` — a
  process-wide counter/gauge registry (methods scanned, repeats found,
  bytes saved per mechanism, ...);
* :func:`histogram_observe` — a :class:`Histogram` registry over fixed
  log-scaled buckets (per-group outline latency, repeat lengths,
  pool queue waits, cache lookup times) with tracked sum/count/min/max
  and derived p50/p90/p99.

**The no-op fast path.**  Every module-level helper reads the thread
overlay and one global (``_ACTIVE``) and returns a shared do-nothing
object when no tracer is installed, so an instrumented call site costs
141 ns (``span()``) and 111 ns (``counter_add()``) when nobody is
measuring — the figures in ``benchmarks/_artifacts/
observability_overhead.txt``, which ``benchmarks/
bench_observability_overhead.py`` writes (per call through a lambda,
on a 2-CPU x86-64 host).

Thread model: one *process-wide* tracer (``_ACTIVE``) with one span
stack, plus an optional *thread-local* overlay
(:func:`thread_tracing`) for the serve front door, where several
executor threads each run one build and must not interleave their
span stacks.  :func:`current_tracer` and every module-level helper
prefer the thread-local tracer when one is installed.  Worker
processes see no active tracer unless handed a
:class:`~repro.observability.context.TraceContext`, in which case they
measure with their own tracer and the parent grafts the snapshot back
with :meth:`Tracer.adopt`.  The counter/gauge/histogram *registries*
are guarded by a lock: worker-pool completion callbacks and service
threads may feed them concurrently, and a lost increment is a silent
lie in a report (``tests/observability/test_thread_safety.py`` holds
this).  Each span stack keeps the single-threaded contract.
``CALIBRO_OBS_OFF=1`` (or :func:`set_disabled`) disables installation
entirely; :mod:`repro.core.pipeline` then runs its one build path with
a tracer that is never installed — the control arm of the overhead
micro-benchmark.
"""

from __future__ import annotations

import itertools
import math
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from repro.observability.context import TraceContext

__all__ = [
    "HISTOGRAM_BOUNDS",
    "Histogram",
    "Span",
    "TRACE_SCHEMA_VERSION",
    "Trace",
    "Tracer",
    "counter_add",
    "current_tracer",
    "enabled",
    "gauge_max",
    "gauge_set",
    "global_tracer",
    "histogram_observe",
    "install_tracer",
    "set_disabled",
    "span",
    "thread_tracing",
    "tracing",
    "uninstall_tracer",
]

#: Version of the serialized :class:`Trace` document.  v1: spans +
#: counters + gauges.  v2: added ``histograms``.  v3: spans carry
#: ``span_id``/``parent_id``/``pid`` and ``meta`` carries
#: ``trace_id``/``epoch_unix`` for cross-process merging.  Loaders
#: accept any version up to this one (missing = v1; v2 spans simply
#: have no ids) and refuse newer documents.
TRACE_SCHEMA_VERSION = 3

#: Log-scaled bucket upper bounds shared by every histogram: doubling
#: from 1 µs to ~537 s (seconds-valued series) while still resolving
#: small integers (lengths, benefits) — values above the last bound
#: land in the implicit +Inf overflow bucket.
HISTOGRAM_BOUNDS: tuple[float, ...] = tuple(1e-6 * 2.0**i for i in range(30))


@dataclass
class Span:
    """One timed region.  ``start`` is seconds since the trace epoch.

    ``span_id``/``parent_id`` (16 hex chars, schema v3) give every span
    a causal identity that survives process boundaries: a child
    process's root span points at the parent process's span via
    ``parent_id``, so merged distributed traces keep one coherent
    parent chain.  ``pid`` records the emitting process (0 = unknown,
    for pre-v3 documents).  Structural nesting (``children``) and the
    id links agree by construction for spans minted by one tracer.
    """

    name: str
    start: float = 0.0
    duration: float = 0.0
    attrs: dict[str, Any] = field(default_factory=dict)
    children: list["Span"] = field(default_factory=list)
    span_id: str = ""
    parent_id: str = ""
    pid: int = 0

    @property
    def child_seconds(self) -> float:
        return sum(c.duration for c in self.children)

    @property
    def self_seconds(self) -> float:
        """Time not attributed to any child span."""
        return max(0.0, self.duration - self.child_seconds)

    def find(self, name: str) -> "Span | None":
        """First descendant (depth-first) with the given name."""
        for child in self.children:
            if child.name == name:
                return child
            found = child.find(name)
            if found is not None:
                return found
        return None

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "name": self.name,
            "start": round(self.start, 9),
            "duration": round(self.duration, 9),
        }
        if self.attrs:
            out["attrs"] = self.attrs
        if self.span_id:
            out["span_id"] = self.span_id
        if self.parent_id:
            out["parent_id"] = self.parent_id
        if self.pid:
            out["pid"] = self.pid
        if self.children:
            out["children"] = [c.to_dict() for c in self.children]
        return out

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Span":
        return cls(
            name=data["name"],
            start=float(data.get("start", 0.0)),
            duration=float(data.get("duration", 0.0)),
            attrs=dict(data.get("attrs", {})),
            children=[cls.from_dict(c) for c in data.get("children", [])],
            span_id=str(data.get("span_id", "")),
            parent_id=str(data.get("parent_id", "")),
            pid=int(data.get("pid", 0)),
        )

    def walk(self) -> Iterator["Span"]:
        """Depth-first traversal of this span and all descendants."""
        yield self
        for child in self.children:
            yield from child.walk()


class Histogram:
    """A fixed-bucket log-scaled histogram of one value series.

    Buckets are the process-wide :data:`HISTOGRAM_BOUNDS` (upper bounds,
    half-open ``(prev, bound]`` ranges) plus an implicit +Inf overflow
    slot, so every histogram in a trace is directly comparable and the
    Prometheus exposition (cumulative ``le`` buckets) falls out for
    free.  ``sum``/``count``/``min``/``max`` are tracked exactly;
    quantiles are *derived* from the bucket counts — deterministic
    functions of integers, so they survive JSON round-trips exactly.
    """

    __slots__ = ("counts", "count", "sum", "min", "max")

    def __init__(self) -> None:
        self.counts: list[int] = [0] * (len(HISTOGRAM_BOUNDS) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        self.counts[self._bucket_index(value)] += 1
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @staticmethod
    def _bucket_index(value: float) -> int:
        lo, hi = 0, len(HISTOGRAM_BOUNDS)
        while lo < hi:  # first bound >= value; len(BOUNDS) = overflow
            mid = (lo + hi) // 2
            if HISTOGRAM_BOUNDS[mid] >= value:
                hi = mid
            else:
                lo = mid + 1
        return lo

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram into this one, exactly.

        Buckets are process-wide constants, so a merge is pure integer
        addition — the shard supervisor uses this to combine per-shard
        registries into the build's registry without losing a single
        observation (``sum``/``count``/``min``/``max`` stay exact; the
        derived quantiles are functions of the merged integers).
        """
        for index, bucket_count in enumerate(other.counts):
            self.counts[index] += bucket_count
        self.count += other.count
        self.sum += other.sum
        if other.min < self.min:
            self.min = other.min
        if other.max > self.max:
            self.max = other.max

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Bucket-resolution quantile estimate, clamped to the observed
        ``[min, max]`` (exact for q=0/1 and for single-bucket data)."""
        if self.count == 0:
            return 0.0
        rank = max(1, math.ceil(q * self.count))
        cumulative = 0
        for index, bucket_count in enumerate(self.counts):
            cumulative += bucket_count
            if cumulative >= rank:
                upper = (
                    HISTOGRAM_BOUNDS[index]
                    if index < len(HISTOGRAM_BOUNDS)
                    else self.max
                )
                return min(max(upper, self.min), self.max)
        return self.max  # pragma: no cover - counts always sum to count

    @property
    def p50(self) -> float:
        return self.quantile(0.50)

    @property
    def p90(self) -> float:
        return self.quantile(0.90)

    @property
    def p99(self) -> float:
        return self.quantile(0.99)

    def to_dict(self) -> dict[str, Any]:
        # Trailing zero buckets are trimmed for compact JSON; counts
        # and exact sum/min/max round-trip losslessly.
        counts = list(self.counts)
        while counts and counts[-1] == 0:
            counts.pop()
        return {
            "counts": counts,
            "count": self.count,
            "sum": self.sum,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Histogram":
        hist = cls()
        counts = list(data.get("counts", []))
        hist.counts[: len(counts)] = [int(c) for c in counts]
        hist.count = int(data.get("count", sum(hist.counts)))
        hist.sum = float(data.get("sum", 0.0))
        minimum = data.get("min")
        maximum = data.get("max")
        hist.min = math.inf if minimum is None else float(minimum)
        hist.max = -math.inf if maximum is None else float(maximum)
        return hist

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Histogram):
            return NotImplemented
        return (
            self.counts == other.counts
            and self.count == other.count
            and self.sum == other.sum
            and self.min == other.min
            and self.max == other.max
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Histogram(count={self.count}, sum={self.sum}, "
            f"p50={self.p50}, p99={self.p99})"
        )


@dataclass
class Trace:
    """A finished measurement: the span forest plus the registries."""

    spans: list[Span] = field(default_factory=list)
    counters: dict[str, int] = field(default_factory=dict)
    gauges: dict[str, float] = field(default_factory=dict)
    histograms: dict[str, Histogram] = field(default_factory=dict)
    meta: dict[str, Any] = field(default_factory=dict)

    @property
    def total_seconds(self) -> float:
        return sum(s.duration for s in self.spans)

    def find(self, name: str) -> Span | None:
        for root in self.spans:
            if root.name == name:
                return root
            found = root.find(name)
            if found is not None:
                return found
        return None

    def walk(self) -> Iterator[Span]:
        """Depth-first traversal over every span in the forest."""
        for root in self.spans:
            yield from root.walk()

    def to_dict(self) -> dict[str, Any]:
        return {
            "version": TRACE_SCHEMA_VERSION,
            "spans": [s.to_dict() for s in self.spans],
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
            "histograms": {
                name: self.histograms[name].to_dict()
                for name in sorted(self.histograms)
            },
            "meta": self.meta,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Trace":
        """Rebuild a trace from ``to_dict``'s shape.

        Tolerant of *older* documents — a v1 trace (or one with no
        ``version`` field at all) simply has no histograms, and a v2
        trace has no span ids.  A document
        from a *newer* format raises
        :class:`~repro.core.errors.CalibroError` (a clear refusal, not
        a ``KeyError`` halfway through a misread payload).
        """
        version = data.get("version", 1)
        if not isinstance(version, int) or version < 1:
            from repro.core.errors import CalibroError

            raise CalibroError(f"trace has an invalid version field: {version!r}")
        if version > TRACE_SCHEMA_VERSION:
            from repro.core.errors import CalibroError

            raise CalibroError(
                f"trace version {version} is newer than this build understands "
                f"(max {TRACE_SCHEMA_VERSION}); upgrade calibro to read it"
            )
        return cls(
            spans=[Span.from_dict(s) for s in data.get("spans", [])],
            counters={k: int(v) for k, v in data.get("counters", {}).items()},
            gauges={k: float(v) for k, v in data.get("gauges", {}).items()},
            histograms={
                k: Histogram.from_dict(v)
                for k, v in data.get("histograms", {}).items()
            },
            meta=dict(data.get("meta", {})),
        )


class _SpanContext:
    """Context manager binding one live span to the tracer's stack."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span):
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        # Exception-safe by construction: the span always closes, the
        # exception always propagates.
        self._tracer._end(self._span)
        return False


class _NoopSpanContext:
    """Shared do-nothing context manager for the disabled fast path."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NOOP = _NoopSpanContext()


class Tracer:
    """Collects spans and counters for one measurement session.

    Every tracer belongs to exactly one distributed trace, identified
    by ``context.trace_id`` — a fresh trace when constructed bare, or
    an inherited one when handed a
    :class:`~repro.observability.context.TraceContext` from an upstream
    process.  Spans minted here get ids of the form ``<10-hex random
    base><6-hex counter>``: the random base makes ids from different
    processes collision-free without a per-span ``urandom`` call, and
    the counter keeps minting at dict-append cost.
    """

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        *,
        context: TraceContext | None = None,
    ):
        self._clock = clock
        self.epoch = clock()
        #: Wall-clock time at ``epoch`` — lets :meth:`adopt` rebase a
        #: child process's perf-counter-relative starts onto this
        #: tracer's timeline using true wall-clock timestamps.
        self.epoch_unix = time.time()
        self.context = context if context is not None else TraceContext.new()
        self.trace_id = self.context.trace_id
        self.roots: list[Span] = []
        self._stack: list[Span] = []
        self.counters: dict[str, int] = {}
        self.gauges: dict[str, float] = {}
        self.histograms: dict[str, Histogram] = {}
        self.meta: dict[str, Any] = {}
        self._id_base = os.urandom(5).hex()
        self._id_counter = itertools.count(1)
        # Registry mutations may arrive from pool callbacks on other
        # threads; read-modify-write on the dicts is not atomic, so the
        # registries share one lock (each span stack stays
        # single-threaded).
        self._lock = threading.Lock()

    def _mint_span_id(self) -> str:
        # next() on itertools.count is atomic under the GIL.
        return f"{self._id_base}{next(self._id_counter) & 0xFFFFFF:06x}"

    # -- spans ------------------------------------------------------------

    def span(self, name: str, **attrs: Any) -> _SpanContext:
        """Open a nested span (use as a context manager)."""
        parent_id = self._stack[-1].span_id if self._stack else self.context.span_id
        node = Span(
            name=name,
            start=self._clock() - self.epoch,
            attrs=attrs,
            span_id=self._mint_span_id(),
            parent_id=parent_id,
        )
        (self._stack[-1].children if self._stack else self.roots).append(node)
        self._stack.append(node)
        return _SpanContext(self, node)

    def _end(self, node: Span) -> None:
        now = self._clock() - self.epoch
        # Unwind to (and including) the span being closed, so a missed
        # inner close cannot corrupt the stack for outer spans.
        while self._stack:
            top = self._stack.pop()
            if top.duration == 0.0:
                top.duration = now - top.start
            if top is node:
                break

    @property
    def current_span(self) -> Span | None:
        return self._stack[-1] if self._stack else None

    def child_context(self) -> TraceContext:
        """The context a subprocess spawned *now* should inherit: same
        trace, parented under the currently open span (or under this
        tracer's own upstream parent when no span is open)."""
        if self._stack:
            return self.context.child(self._stack[-1].span_id)
        return self.context

    def adopt(self, trace: Trace, *, parent: Span | None = None) -> list[Span]:
        """Graft a child process's snapshot into this trace, losslessly.

        Registries fold in exactly (:meth:`merge_registry`).  The
        child's span forest is re-rooted under ``parent`` (default: the
        currently open span), with starts rebased from the child's
        timeline onto ours via the snapshots' wall-clock epochs
        (``meta["epoch_unix"]``) — so a shard that started 80 ms into
        the build shows up 80 ms into the build, not at t=0.  Spans
        keep their child-minted ids; roots missing a ``parent_id``
        (child ran without a propagated context) are linked to the
        adoption point.  Returns the adopted roots.
        """
        self.merge_registry(trace)
        anchor = parent if parent is not None else self.current_span
        child_epoch = trace.meta.get("epoch_unix")
        if isinstance(child_epoch, (int, float)):
            offset = float(child_epoch) - self.epoch_unix
        else:
            offset = 0.0
        pid = trace.meta.get("pid")
        pid = int(pid) if isinstance(pid, int) else 0
        for root in trace.spans:
            for node in root.walk():
                node.start += offset
                if pid and not node.pid:
                    node.pid = pid
            if not root.parent_id and anchor is not None:
                root.parent_id = anchor.span_id
            if anchor is not None:
                anchor.children.append(root)
            else:
                self.roots.append(root)
        return list(trace.spans)

    # -- counters / gauges / histograms -------------------------------------

    def add(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def gauge_set(self, name: str, value: float) -> None:
        with self._lock:
            self.gauges[name] = value

    def gauge_max(self, name: str, value: float) -> None:
        with self._lock:
            if value > self.gauges.get(name, float("-inf")):
                self.gauges[name] = value

    def histogram_observe(self, name: str, value: float) -> None:
        with self._lock:
            hist = self.histograms.get(name)
            if hist is None:
                hist = self.histograms[name] = Histogram()
            hist.observe(value)

    def merge_registry(self, other: Trace) -> None:
        """Fold another trace's counter/gauge/histogram registries into
        this tracer.

        Shard processes measure with their own local tracer (no shared
        memory with the supervisor); their snapshots travel back in the
        shard result and land here.  Counters add, histograms merge
        exactly (:meth:`Histogram.merge`), and gauges keep the maximum —
        the conservative reading for the peak-style gauges that cross
        process boundaries.  Spans are *not* merged here; :meth:`adopt`
        grafts a child's span forest (with wall-clock rebasing) and
        calls this for the registries.
        """
        with self._lock:
            for name, value in other.counters.items():
                self.counters[name] = self.counters.get(name, 0) + value
            for name, value in other.gauges.items():
                if value > self.gauges.get(name, float("-inf")):
                    self.gauges[name] = value
            for name, hist in other.histograms.items():
                own = self.histograms.get(name)
                if own is None:
                    own = self.histograms[name] = Histogram()
                own.merge(hist)

    # -- export ------------------------------------------------------------

    def _copy_span(self, node: Span, now: float) -> Span:
        # Open spans get their current partial duration *in the copy* —
        # the live span is untouched, so a snapshot taken mid-build
        # (the server's live ``status`` introspection) cannot freeze a
        # wrong duration into the span ``_end`` will close later.
        duration = node.duration
        if duration == 0.0 and node in self._stack:
            duration = now - node.start
        return Span(
            name=node.name,
            start=node.start,
            duration=duration,
            attrs=dict(node.attrs),
            children=[self._copy_span(c, now) for c in list(node.children)],
            span_id=node.span_id,
            parent_id=node.parent_id,
            pid=node.pid,
        )

    def snapshot(self, **meta: Any) -> Trace:
        """Freeze the collected data into a :class:`Trace`.

        The returned span forest is a deep copy: open spans appear with
        their current partial durations, live spans are never mutated,
        and the caller can serialize the result while this tracer keeps
        measuring (the live-introspection path snapshots another
        thread's tracer).  ``meta`` always carries ``trace_id``,
        ``epoch_unix`` and ``pid`` so a parent process can
        :meth:`adopt` the snapshot losslessly.
        """
        now = self._clock() - self.epoch
        # An unsampled context (TraceContext.sampled=False, carried on
        # the wire or into an executor child) downgrades span
        # recording: the snapshot ships registries only — counters,
        # gauges and histograms still aggregate exactly, but no span
        # forest travels back to (or out of) this process.  Span
        # *collection* stays live so in-process callers can keep using
        # span objects; the downgrade happens at the export boundary.
        if self.context.sampled:
            spans = [self._copy_span(root, now) for root in list(self.roots)]
        else:
            spans = []
        with self._lock:
            histograms = {
                name: Histogram.from_dict(hist.to_dict())
                for name, hist in self.histograms.items()
            }
            return Trace(
                spans=spans,
                counters=dict(self.counters),
                gauges=dict(self.gauges),
                histograms=histograms,
                meta={
                    "trace_id": self.trace_id,
                    "epoch_unix": self.epoch_unix,
                    "pid": os.getpid(),
                    # Only flagged when downgraded — sampled traces keep
                    # the pre-existing meta shape byte-for-byte.
                    **({} if self.context.sampled else {"sampled": False}),
                    **self.meta,
                    **meta,
                },
            )


# -- the process-wide registry ---------------------------------------------

_ACTIVE: Tracer | None = None
_DISABLED = os.environ.get("CALIBRO_OBS_OFF", "") not in ("", "0")


class _Overlay(threading.local):
    """Thread-local tracer overlay: the serve front door runs one build
    per executor thread, each measuring into its own tracer via
    :func:`thread_tracing`.  Threads without an overlay read the
    class-level ``None`` (a plain attribute load, no AttributeError
    raised and caught) and fall through to the process-wide
    ``_ACTIVE`` tracer."""

    tracer: Tracer | None = None


_TLS = _Overlay()


def enabled() -> bool:
    """False when observability is globally disabled (``CALIBRO_OBS_OFF``
    or :func:`set_disabled`) — no tracer can be installed, and the
    pipeline times its phase spans on a build-local tracer it never
    installs."""
    return not _DISABLED


def set_disabled(flag: bool) -> None:
    """Runtime kill switch (the overhead benchmark's control arm)."""
    global _DISABLED, _ACTIVE
    _DISABLED = flag
    if flag:
        _ACTIVE = None


def current_tracer() -> Tracer | None:
    """The tracer instrumentation feeds right now: this thread's
    overlay tracer (:func:`thread_tracing`) if one is installed, else
    the process-wide tracer."""
    tracer = _TLS.tracer
    return tracer if tracer is not None else _ACTIVE


def global_tracer() -> Tracer | None:
    """The process-wide tracer, ignoring any thread-local overlay —
    the one whole-process exports (Prometheus exposition) should read."""
    return _ACTIVE


def install_tracer(tracer: Tracer) -> Tracer | None:
    """Make ``tracer`` the process-wide active tracer; returns the tracer
    it replaced (no-op returning ``None`` when disabled)."""
    global _ACTIVE
    if _DISABLED:
        return None
    previous = _ACTIVE
    _ACTIVE = tracer
    return previous


def uninstall_tracer(previous: Tracer | None = None) -> None:
    global _ACTIVE
    _ACTIVE = previous


class _TracingContext:
    """``with tracing() as tracer:`` — install, run, restore."""

    __slots__ = ("_tracer", "_previous")

    def __init__(self, tracer: Tracer | None):
        self._tracer = tracer or Tracer()
        self._previous: Tracer | None = None

    def __enter__(self) -> Tracer:
        self._previous = install_tracer(self._tracer)
        return self._tracer

    def __exit__(self, exc_type, exc, tb) -> bool:
        if current_tracer() is self._tracer:
            uninstall_tracer(self._previous)
        return False


def tracing(tracer: Tracer | None = None) -> _TracingContext:
    """Install a tracer for the duration of a ``with`` block."""
    return _TracingContext(tracer)


class _ThreadTracingContext:
    """``with thread_tracing(tracer):`` — overlay this thread only."""

    __slots__ = ("_tracer", "_previous")

    def __init__(self, tracer: Tracer | None):
        self._tracer = tracer or Tracer()
        self._previous: Tracer | None = None

    def __enter__(self) -> Tracer:
        if not _DISABLED:
            self._previous = _TLS.tracer
            _TLS.tracer = self._tracer
        return self._tracer

    def __exit__(self, exc_type, exc, tb) -> bool:
        if not _DISABLED and _TLS.tracer is self._tracer:
            _TLS.tracer = self._previous
        return False


def thread_tracing(tracer: Tracer | None = None) -> _ThreadTracingContext:
    """Install a tracer for this *thread* only, shadowing the
    process-wide tracer for the duration of the ``with`` block.  The
    serve front door gives each concurrent build its own overlay so
    executor threads cannot interleave span stacks."""
    return _ThreadTracingContext(tracer)


# -- module-level fast-path helpers ------------------------------------------


def span(name: str, **attrs: Any):
    """Open a span on the active tracer, or do nothing (fast) without one."""
    tracer = _TLS.tracer or _ACTIVE
    if tracer is None:
        return _NOOP
    return tracer.span(name, **attrs)


def counter_add(name: str, amount: int = 1) -> None:
    tracer = _TLS.tracer or _ACTIVE
    if tracer is not None:
        tracer.add(name, amount)


def gauge_set(name: str, value: float) -> None:
    tracer = _TLS.tracer or _ACTIVE
    if tracer is not None:
        tracer.gauge_set(name, value)


def gauge_max(name: str, value: float) -> None:
    tracer = _TLS.tracer or _ACTIVE
    if tracer is not None:
        tracer.gauge_max(name, value)


def histogram_observe(name: str, value: float) -> None:
    tracer = _TLS.tracer or _ACTIVE
    if tracer is not None:
        tracer.histogram_observe(name, value)
