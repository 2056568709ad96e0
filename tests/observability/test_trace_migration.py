"""Trace schema v3 migration: old documents load, newer ones are
refused, and the span-id invariants hold under real concurrency."""

from __future__ import annotations

import threading

import pytest

from repro import observability as obs
from repro.core.errors import CalibroError
from repro.core.pipeline import CalibroConfig
from repro.observability import TRACE_SCHEMA_VERSION, Trace, Tracer
from repro.service import BuildService, ServiceConfig
from repro.workloads import app_spec, generate_app

HEX = set("0123456789abcdef")


def _check_identity(trace: Trace) -> None:
    """The v3 invariants: every span id is 16 hex chars and unique
    across the trace; every parent link resolves; structural nesting
    and id links agree."""
    ids: list[str] = []
    for span in trace.walk():
        assert len(span.span_id) == 16 and set(span.span_id) <= HEX, span
        ids.append(span.span_id)
        for child in span.children:
            assert child.parent_id == span.span_id, (span.name, child.name)
    assert len(ids) == len(set(ids)), "duplicate span ids"
    known = set(ids)
    dangling = [
        s.name for s in trace.walk() if s.parent_id and s.parent_id not in known
    ]
    assert not dangling, dangling


# -- loading old documents ----------------------------------------------------


def test_v2_document_loads_under_v3():
    doc = {
        "version": 2,
        "spans": [
            {
                "name": "build",
                "start": 0.0,
                "duration": 2.0,
                "children": [{"name": "dex2oat", "start": 0.1, "duration": 1.0}],
            }
        ],
        "counters": {"cto.merged_methods": 3},
        "histograms": {},
        "meta": {"config": "CTO"},
    }
    trace = Trace.from_dict(doc)
    root = trace.spans[0]
    # v2 predates span identity: ids default empty, pid unknown.
    assert root.span_id == "" and root.parent_id == "" and root.pid == 0
    assert root.children[0].name == "dex2oat"
    assert trace.counters["cto.merged_methods"] == 3


def test_v1_document_without_version_field_loads():
    trace = Trace.from_dict({"spans": [{"name": "build"}], "meta": {}})
    assert trace.spans[0].name == "build"


def test_newer_schema_is_refused():
    with pytest.raises(CalibroError, match="newer than this build understands"):
        Trace.from_dict({"version": TRACE_SCHEMA_VERSION + 1, "spans": []})


@pytest.mark.parametrize("version", ["3", 0, -1, None])
def test_invalid_version_field_is_refused(version):
    with pytest.raises(CalibroError, match="invalid version"):
        Trace.from_dict({"version": version, "spans": []})


def test_round_trip_preserves_span_identity():
    tracer = Tracer()
    with tracer.span("build"):
        with tracer.span("dex2oat"):
            pass
        with tracer.span("link"):
            pass
    snapshot = tracer.snapshot()
    reloaded = Trace.from_dict(snapshot.to_dict())
    assert [s.span_id for s in reloaded.walk()] == [
        s.span_id for s in snapshot.walk()
    ]
    assert snapshot.to_dict()["version"] == TRACE_SCHEMA_VERSION
    _check_identity(reloaded)


# -- identity under concurrency ----------------------------------------------


def test_span_ids_stay_unique_under_threads():
    tracer = Tracer()
    barrier = threading.Barrier(6)
    snapshots: list[Trace] = []
    lock = threading.Lock()

    def worker(index: int) -> None:
        child = Tracer(context=tracer.child_context())
        barrier.wait()
        with obs.thread_tracing(child):
            for step in range(25):
                with obs.span("thread.work", thread=index, step=step):
                    pass
        with lock:
            snapshots.append(child.snapshot())

    with tracer.span("root"):
        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(6)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for snapshot in snapshots:
            tracer.adopt(snapshot)
    trace = tracer.snapshot()
    assert sum(1 for _ in trace.walk()) == 1 + 6 * 25
    _check_identity(trace)


def test_sharded_build_trace_keeps_identity_intact():
    dexfile = generate_app(app_spec("Wechat", scale=0.05)).dexfile
    config = CalibroConfig.cto_ltbo_plopti(groups=4)
    with obs.tracing() as tracer:
        with BuildService(ServiceConfig(shards=2)) as service:
            service.submit(dexfile, config)
    trace = tracer.snapshot()
    _check_identity(trace)
    # The shard children really ran in other processes and their spans
    # merged under this tracer's trace id.
    shard_spans = [s for s in trace.walk() if s.name == "service.pool.task"]
    assert len(shard_spans) == 2
    assert trace.meta["trace_id"] == tracer.trace_id
