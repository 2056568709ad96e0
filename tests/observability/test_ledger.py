"""The append-only JSONL build ledger."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.errors import CalibroError
from repro.observability import (
    LEDGER_SCHEMA_VERSION,
    BuildLedger,
    LedgerEntry,
    trace_digest,
)


def _entry(config="CTO+LTBO", label="app", before=10000, after=8000, **kw):
    return LedgerEntry(
        config=config,
        label=label,
        text_size_before=before,
        text_size_after=after,
        wall_seconds=kw.pop("wall_seconds", 1.5),
        timestamp=kw.pop("timestamp", 1000.0),
        **kw,
    )


# -- LedgerEntry ------------------------------------------------------------


def test_reduction_matches_the_paper_formula():
    assert _entry(before=10000, after=8081).reduction == pytest.approx(0.1919)
    assert _entry(before=0, after=0).reduction == 0.0  # no division by zero


def test_entry_round_trip():
    entry = _entry(cache_hits=3, cache_misses=1, meta={"git": "abc123"})
    back = LedgerEntry.from_dict(json.loads(json.dumps(entry.to_dict())))
    assert back == entry


def test_dict_carries_derived_reduction_and_schema_version():
    data = _entry(before=10000, after=8000).to_dict()
    assert data["schema_version"] == LEDGER_SCHEMA_VERSION
    assert data["reduction"] == pytest.approx(0.2)


def test_missing_schema_version_reads_as_v1():
    data = _entry().to_dict()
    del data["schema_version"]
    assert LedgerEntry.from_dict(data).schema_version == 1


def test_pre_v5_engine_field_is_ignored():
    data = {**_entry().to_dict(), "schema_version": 4, "engine": "suffixtree"}
    entry = LedgerEntry.from_dict(data)
    assert entry.schema_version == 4
    assert entry == LedgerEntry.from_dict({**data, "engine": "suffixarray"})
    assert "engine" not in entry.to_dict()


def test_newer_schema_version_is_refused():
    data = _entry().to_dict()
    data["schema_version"] = LEDGER_SCHEMA_VERSION + 1
    with pytest.raises(CalibroError, match="newer than this build"):
        LedgerEntry.from_dict(data)


def test_non_mapping_record_is_refused():
    with pytest.raises(CalibroError, match="mapping"):
        LedgerEntry.from_dict(["not", "a", "dict"])


# -- BuildLedger ------------------------------------------------------------


def test_append_and_iterate(tmp_path):
    ledger = BuildLedger(tmp_path / "sub" / "ledger.jsonl")  # parents created
    ledger.append(_entry(label="a"))
    ledger.append(_entry(label="b"))
    labels = [e.label for e in ledger.entries()]
    assert labels == ["a", "b"]


def test_missing_file_reads_as_empty(tmp_path):
    assert BuildLedger(tmp_path / "absent.jsonl").entries() == []


def test_truncated_final_line_is_tolerated(tmp_path):
    path = tmp_path / "ledger.jsonl"
    ledger = BuildLedger(path)
    ledger.append(_entry(label="ok"))
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"config": "crashed mid-wri')  # a dead writer's last gasp
    assert [e.label for e in ledger.entries()] == ["ok"]


def test_corrupt_interior_line_raises_with_line_number(tmp_path):
    path = tmp_path / "ledger.jsonl"
    ledger = BuildLedger(path)
    ledger.append(_entry(label="a"))
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("garbage\n")
    ledger.append(_entry(label="b"))
    with pytest.raises(CalibroError, match=":2"):
        ledger.entries()


def test_last_filters_by_config_and_label(tmp_path):
    ledger = BuildLedger(tmp_path / "ledger.jsonl")
    ledger.append(_entry(config="A", label="x", after=1))
    ledger.append(_entry(config="B", label="x", after=2))
    ledger.append(_entry(config="A", label="y", after=3))
    assert ledger.last().text_size_after == 3
    assert ledger.last(config="B").text_size_after == 2
    assert ledger.last(config="A", label="x").text_size_after == 1
    assert ledger.last(config="missing") is None
    assert ledger.configs() == ["A", "B"]


# -- durability: torn writes and injected faults ----------------------------


def test_trailing_corrupt_lines_are_counted_and_metered(tmp_path):
    from repro import observability as obs

    path = tmp_path / "ledger.jsonl"
    ledger = BuildLedger(path)
    ledger.append(_entry(label="ok"))
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"config": "torn mid-wri\n')  # ENOSPC / crash leftovers
        fh.write("{{{not json\n")
    with obs.tracing() as tracer:
        assert [e.label for e in ledger.entries()] == ["ok"]
    assert ledger.corrupt_lines == 2
    assert tracer.counters["ledger.corrupt_lines"] == 2
    # A later clean append supersedes the damage assessment.
    ledger.append(_entry(label="next"))
    with pytest.raises(CalibroError):  # torn lines are now interior
        ledger.entries()


def test_append_fault_site_fires_in_parent(tmp_path):
    from repro.core.errors import ServiceError
    from repro.service.faults import FaultPlan, armed

    ledger = BuildLedger(tmp_path / "ledger.jsonl")
    plan = FaultPlan(seed=0, error=1.0, in_parent=True, match=("ledger:app",))
    with armed(plan):
        with pytest.raises(ServiceError, match="injected fault at ledger:app"):
            ledger.append(_entry(label="app"))
        # Non-matching key passes through untouched.
        ledger.append(_entry(label="other"))
    # The fault fired before any bytes landed: no torn half-record.
    assert [e.label for e in ledger.entries()] == ["other"]
    assert ledger.corrupt_lines == 0


def test_ledger_fault_site_stays_quiet_outside_child_without_in_parent(tmp_path):
    from repro.service.faults import FaultPlan, armed

    ledger = BuildLedger(tmp_path / "ledger.jsonl")
    plan = FaultPlan(seed=0, error=1.0, match=("ledger:app",))  # child-only
    with armed(plan):
        ledger.append(_entry(label="app"))
    assert [e.label for e in ledger.entries()] == ["app"]


# -- distilling builds ------------------------------------------------------


def test_trace_digest_is_canonical_and_none_safe():
    assert trace_digest(None) == ""
    from repro.observability import Trace

    trace = Trace(spans=[], counters={"a": 1}, gauges={}, meta={})
    digest = trace_digest(trace)
    assert len(digest) == 64
    assert digest == trace_digest(Trace(spans=[], counters={"a": 1},
                                        gauges={}, meta={}))


def test_entry_from_build_distills_a_real_build(small_app):
    from repro.core import CalibroConfig, build_app
    from repro.observability import entry_from_build

    build = build_app(small_app.dexfile, CalibroConfig.cto_ltbo())
    entry = entry_from_build(build, label="taobao", timestamp=123.0)
    assert entry.config == build.config.name
    assert entry.label == "taobao"
    assert entry.text_size_after == build.text_size
    bytes_saved = sum(s.bytes_saved for s in build.outline_stats)
    assert entry.text_size_before == build.text_size + bytes_saved
    assert entry.reduction > 0
    assert entry.wall_seconds == build.build_seconds
    assert entry.timestamp == 123.0


def test_trace_id_round_trips_through_the_ledger(tmp_path):
    """v4: the distributed-trace id joins a ledger row to its trace."""
    ledger = BuildLedger(tmp_path / "ledger.jsonl")
    ledger.append(_entry(label="traced", trace_id="ab" * 16))
    ledger.append(_entry(label="dark"))  # built without a tracer
    traced, dark = ledger.entries()
    assert traced.trace_id == "ab" * 16
    assert dark.trace_id == ""
    assert _entry(trace_id="cd" * 16).to_dict()["trace_id"] == "cd" * 16


def test_entry_from_build_records_the_trace_id(small_app):
    from repro import observability as obs
    from repro.core import CalibroConfig, build_app
    from repro.observability import entry_from_build

    with obs.tracing() as tracer:
        build = build_app(small_app.dexfile, CalibroConfig.cto())
    entry = entry_from_build(build, label="taobao")
    assert entry.trace_id == tracer.trace_id


def test_graph_field_round_trips_and_stays_optional():
    """v2: incremental builds attach the delta accounting dict; plain
    builds serialize without the key at all (old readers unaffected)."""
    plain = _entry()
    assert "graph" not in plain.to_dict()
    delta = {"full_rebuild": False, "nodes_total": 9, "nodes_reused": 8,
             "nodes_rebuilt": 1, "seconds": 0.04}
    entry = _entry(graph=delta)
    data = json.loads(json.dumps(entry.to_dict()))
    assert data["graph"] == delta
    assert LedgerEntry.from_dict(data) == entry


def test_committed_incremental_ledger_has_the_current_shape():
    """``benchmarks/bench_incremental.py`` rewrites this tracked artifact
    on every run; a line in an older shape means it appended instead."""
    from repro.service.graph import GraphDelta

    path = (Path(__file__).resolve().parents[2]
            / "benchmarks" / "_artifacts" / "incremental_ledger.jsonl")
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines
    for number, line in enumerate(lines, 1):
        data = json.loads(line)
        entry = LedgerEntry.from_dict(data)
        assert entry.schema_version == LEDGER_SCHEMA_VERSION, number
        assert set(data) <= set(entry.to_dict()), number
        assert set(entry.graph) == set(GraphDelta().as_dict()), number
