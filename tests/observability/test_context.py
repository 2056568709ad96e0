"""TraceContext: the identity one request carries across processes."""

from __future__ import annotations

import pytest

from repro import observability as obs
from repro.core.errors import CalibroError
from repro.observability import TraceContext


def _counted_double(value):
    """Executor worker that counts its calls on the child's tracer."""
    obs.counter_add("test.child_calls")
    return value * 2


def test_new_mints_a_root_context():
    ctx = TraceContext.new()
    assert len(ctx.trace_id) == 32
    assert set(ctx.trace_id) <= set("0123456789abcdef")
    assert ctx.span_id == ""  # root: no upstream parent
    assert ctx.sampled is True
    assert TraceContext.new().trace_id != ctx.trace_id


def test_child_keeps_the_trace_and_swaps_the_parent():
    ctx = TraceContext.new()
    child = ctx.child("00deadbeef00cafe")
    assert child.trace_id == ctx.trace_id
    assert child.span_id == "00deadbeef00cafe"
    assert child.sampled == ctx.sampled


@pytest.mark.parametrize("trace_id", [
    "", "short", "X" * 32, "ABCDEF" + "0" * 26,  # uppercase refused
    "0" * 31, "0" * 33,
])
def test_malformed_trace_id_is_refused(trace_id):
    with pytest.raises(CalibroError, match="trace_id"):
        TraceContext(trace_id=trace_id)


def test_malformed_span_id_is_refused():
    with pytest.raises(CalibroError, match="span_id"):
        TraceContext(trace_id="ab" * 16, span_id="nope")


def test_wire_round_trip():
    ctx = TraceContext(trace_id="ab" * 16, span_id="cd" * 8, sampled=False)
    back = TraceContext.from_dict(ctx.to_dict())
    assert back == ctx
    # A root context omits span_id from the wire document entirely.
    root = TraceContext(trace_id="ef" * 16)
    assert "span_id" not in root.to_dict()
    assert TraceContext.from_dict(root.to_dict()) == root


def test_from_dict_refuses_non_mapping():
    with pytest.raises(CalibroError, match="mapping"):
        TraceContext.from_dict(["not", "a", "dict"])


def test_tracer_inherits_the_context():
    from repro.observability import Tracer

    ctx = TraceContext(trace_id="ab" * 16, span_id="cd" * 8)
    tracer = Tracer(context=ctx)
    assert tracer.trace_id == ctx.trace_id
    with tracer.span("root") as root:
        pass
    # The first span parents under the upstream span id.
    assert root.parent_id == ctx.span_id
    assert tracer.snapshot().meta["trace_id"] == ctx.trace_id


def test_child_context_points_at_the_open_span():
    from repro.observability import Tracer

    tracer = Tracer()
    assert tracer.child_context() == tracer.context  # nothing open
    with tracer.span("work") as span:
        ctx = tracer.child_context()
        assert ctx.trace_id == tracer.trace_id
        assert ctx.span_id == span.span_id


# -- sampled=False downgrades span recording ----------------------------------


def test_unsampled_context_drops_spans_at_export():
    """``sampled=False`` must downgrade span recording: callers still
    get live span objects to time against, registries still aggregate
    exactly, but the snapshot ships no span tree and flags itself."""
    from repro import observability as obs
    from repro.observability import Tracer

    ctx = TraceContext(trace_id="ab" * 16, sampled=False)
    tracer = Tracer(context=ctx)
    with obs.tracing(tracer):
        with obs.span("service.build", label="x") as span:
            obs.counter_add("service.builds")
            obs.gauge_set("service.shard.count", 2)
            obs.histogram_observe("service.cache.lookup_seconds", 0.01)
        assert span.name == "service.build"  # collection stayed live
    snapshot = tracer.snapshot()
    assert snapshot.spans == []
    assert snapshot.meta["sampled"] is False
    assert snapshot.meta["trace_id"] == ctx.trace_id
    assert snapshot.counters["service.builds"] == 1
    assert snapshot.gauges["service.shard.count"] == 2
    assert snapshot.histograms["service.cache.lookup_seconds"].count == 1


def test_sampled_snapshot_shape_is_unchanged():
    from repro import observability as obs
    from repro.observability import Tracer

    tracer = Tracer()  # default root context: sampled
    with obs.tracing(tracer):
        with obs.span("service.build"):
            pass
    snapshot = tracer.snapshot()
    assert len(snapshot.spans) == 1
    assert "sampled" not in snapshot.meta  # no new key on the hot path


def test_unsampled_request_stays_unsampled_across_shards():
    """One unsampled request through the shard executor: the children's
    counters still merge into the supervising registries, but neither
    the children nor the supervisor export any spans."""
    from repro.observability import Tracer
    from repro.service import ShardExecutor

    ctx = TraceContext(trace_id="cd" * 16, sampled=False)
    tracer = Tracer(context=ctx)
    with obs.tracing(tracer):
        with ShardExecutor(shards=2) as executor:
            assert executor.map_groups(_counted_double, [7, 7, 7, 7]) == [14] * 4
    snapshot = tracer.snapshot()
    assert snapshot.spans == []
    assert snapshot.meta["sampled"] is False
    # The shard children inherited the unsampled flag via child_context
    # yet their registries merged back exactly.
    assert snapshot.counters.get("test.child_calls") == 4
