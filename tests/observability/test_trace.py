"""The tracing substrate: spans, counters, gauges, installation."""

from __future__ import annotations

import pytest

from repro import observability as obs
from repro.observability import Span, Trace, Tracer


class FakeClock:
    """Deterministic monotonic clock for exact duration assertions."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def clock() -> FakeClock:
    return FakeClock()


@pytest.fixture
def tracer(clock) -> Tracer:
    return Tracer(clock=clock)


# -- span nesting -----------------------------------------------------------


def test_span_nesting(tracer, clock):
    with tracer.span("outer"):
        clock.advance(1.0)
        with tracer.span("inner"):
            clock.advance(2.0)
        clock.advance(0.5)

    (outer,) = tracer.roots
    assert outer.name == "outer"
    assert outer.duration == pytest.approx(3.5)
    (inner,) = outer.children
    assert inner.name == "inner"
    assert inner.start == pytest.approx(1.0)
    assert inner.duration == pytest.approx(2.0)
    assert outer.child_seconds == pytest.approx(2.0)
    assert outer.self_seconds == pytest.approx(1.5)


def test_sibling_spans_share_parent(tracer):
    with tracer.span("parent"):
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
    (parent,) = tracer.roots
    assert [c.name for c in parent.children] == ["a", "b"]


def test_span_attrs_recorded(tracer):
    with tracer.span("build", config="cto_ltbo", groups=4) as node:
        pass
    assert node.attrs == {"config": "cto_ltbo", "groups": 4}


def test_exception_closes_span_and_propagates(tracer, clock):
    with pytest.raises(ValueError, match="boom"):
        with tracer.span("outer"):
            clock.advance(1.0)
            raise ValueError("boom")
    (outer,) = tracer.roots
    assert outer.duration == pytest.approx(1.0)
    assert tracer.current_span is None


def test_missed_inner_close_does_not_corrupt_outer(tracer, clock):
    # Close the outer span while an inner one is still on the stack; the
    # stack unwinds past the orphan instead of misattributing durations.
    outer_ctx = tracer.span("outer")
    outer = outer_ctx.__enter__()
    clock.advance(1.0)
    tracer.span("orphan").__enter__()
    clock.advance(2.0)
    outer_ctx.__exit__(None, None, None)
    assert tracer.current_span is None
    assert outer.duration == pytest.approx(3.0)
    assert outer.children[0].duration == pytest.approx(2.0)


# -- counters / gauges ------------------------------------------------------


def test_counter_arithmetic(tracer):
    tracer.add("n")
    tracer.add("n")
    tracer.add("n", 40)
    tracer.add("delta", -14)
    assert tracer.counters == {"n": 42, "delta": -14}


def test_gauges(tracer):
    tracer.gauge_set("g", 3.0)
    tracer.gauge_set("g", 1.0)
    assert tracer.gauges["g"] == 1.0
    tracer.gauge_max("m", 5.0)
    tracer.gauge_max("m", 2.0)
    tracer.gauge_max("m", 9.0)
    assert tracer.gauges["m"] == 9.0


# -- module-level helpers and installation ----------------------------------


def test_helpers_are_noops_without_tracer():
    assert obs.current_tracer() is None
    with obs.span("nothing", attr=1) as node:
        assert node is None
    obs.counter_add("nothing")
    obs.gauge_set("nothing", 1.0)
    obs.gauge_max("nothing", 1.0)
    assert obs.current_tracer() is None


def test_tracing_installs_and_restores():
    assert obs.current_tracer() is None
    with obs.tracing() as tracer:
        assert obs.current_tracer() is tracer
        with obs.span("via.module"):
            obs.counter_add("via.module", 3)
    assert obs.current_tracer() is None
    assert tracer.roots[0].name == "via.module"
    assert tracer.counters == {"via.module": 3}


def test_nested_tracing_restores_previous():
    with obs.tracing() as outer:
        with obs.tracing() as inner:
            assert obs.current_tracer() is inner
        assert obs.current_tracer() is outer


def test_set_disabled_blocks_installation():
    obs.set_disabled(True)
    try:
        assert not obs.enabled()
        assert obs.install_tracer(Tracer()) is None
        assert obs.current_tracer() is None
        with obs.tracing() as tracer:
            # The context still yields a tracer object, but nothing is
            # installed process-wide.
            assert obs.current_tracer() is None
            obs.counter_add("ignored")
        assert tracer.counters == {}
    finally:
        obs.set_disabled(False)
    assert obs.enabled()


# -- snapshot and serialisation ---------------------------------------------


def test_snapshot_closes_open_spans_with_partial_durations(tracer, clock):
    handle = tracer.span("open")
    handle.__enter__()
    clock.advance(2.0)
    trace = tracer.snapshot(config="test")
    assert trace.find("open").duration == pytest.approx(2.0)
    assert trace.meta["config"] == "test"
    # The snapshot is a copy: the live span stays open (duration 0)
    # so _end can close it with the real duration later.
    assert tracer.roots[0].duration == 0.0
    clock.advance(1.0)
    handle.__exit__(None, None, None)
    assert tracer.roots[0].duration == pytest.approx(3.0)


def test_trace_find_and_total(tracer, clock):
    with tracer.span("a"):
        clock.advance(1.0)
        with tracer.span("a.x"):
            clock.advance(1.0)
    with tracer.span("b"):
        clock.advance(3.0)
    trace = tracer.snapshot()
    assert trace.total_seconds == pytest.approx(5.0)
    assert trace.find("a.x").duration == pytest.approx(1.0)
    assert trace.find("missing") is None


def test_trace_dict_round_trip(tracer, clock):
    with tracer.span("root", kind="test"):
        clock.advance(1.25)
        with tracer.span("child"):
            clock.advance(0.5)
    tracer.add("c", 7)
    tracer.gauge_max("g", 11.0)
    trace = tracer.snapshot(note="round-trip")

    back = Trace.from_dict(trace.to_dict())
    assert back.counters == {"c": 7}
    assert back.gauges == {"g": 11.0}
    assert back.meta["note"] == "round-trip"
    # Snapshots always stamp the distributed-trace identity (v3).
    assert back.meta["trace_id"] == tracer.trace_id
    assert back.meta["pid"]
    root = back.find("root")
    assert root.attrs == {"kind": "test"}
    assert root.duration == pytest.approx(1.75)
    assert root.span_id and back.find("child").parent_id == root.span_id
    assert back.find("child").start == pytest.approx(1.25)


def test_span_from_dict_defaults():
    span = Span.from_dict({"name": "bare"})
    assert (span.start, span.duration, span.attrs, span.children) == (0.0, 0.0, {}, [])
