"""Acceptance: one distributed trace across client, server and shards.

A ``shards=4`` build through ``calibro submit`` must yield ONE trace
document in which every shard span carries the request's ``trace_id``
(the document has exactly one) and chains by ``parent_id`` back to the
root ``service.server.request`` span — and the Chrome export of that
trace must validate.  Tracing must not change the output bytes.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import threading
import time

import pytest

from repro.cli import main
from repro.core.pipeline import CalibroConfig, build_app
from repro.dex.serialize import save_dexfile
from repro.observability import Trace
from repro.service.faults import FaultPlan, armed
from repro.workloads import app_spec, generate_app

HEX = set("0123456789abcdef")
GROUPS = 4


@pytest.fixture(scope="module")
def dexfile():
    return generate_app(app_spec("Wechat", scale=0.05)).dexfile


@pytest.fixture(scope="module")
def traced_submit(dexfile, tmp_path_factory):
    """One ``calibro submit`` against a shards=4 server, traced both
    ways; yields the output paths for every test in the module."""
    tmp = tmp_path_factory.mktemp("disttrace")
    dex_json = tmp / "wechat.dex.json"
    save_dexfile(dexfile, str(dex_json))
    sockdir = tempfile.mkdtemp(prefix="calibro-sock-")
    sock = os.path.join(sockdir, "s")
    rc: list[int] = []
    argv = [
        "serve", "--listen", sock, "--groups", str(GROUPS), "--shards", "4",
        "--cache-dir", str(tmp / "cache"), "--json",
    ]
    thread = threading.Thread(target=lambda: rc.append(main(argv)), daemon=True)
    thread.start()
    deadline = time.monotonic() + 10.0
    while not os.path.exists(sock) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert os.path.exists(sock), "serve --listen never bound its socket"
    oat = tmp / "app.oat"
    trace_path = tmp / "app.trace.json"
    chrome_path = tmp / "app.chrome.json"
    # Each shard unit naps in its child (an injected slow fault) before
    # mining, so no worker process can finish one unit and take a second
    # before every process holds one: which process runs which unit is
    # otherwise up to the scheduler, and the four-processes check below
    # would depend on it.
    naps = FaultPlan(slow=1.0, slow_seconds=0.2,
                     match=tuple(f"shard:{s}" for s in range(GROUPS)))
    try:
        with armed(naps):
            assert main([
                "submit", sock, str(dex_json), "-o", str(oat),
                "--trace", str(trace_path), "--trace-chrome", str(chrome_path),
                "--json",
            ]) == 0
    finally:
        if thread.is_alive():
            main(["submit", sock, "--shutdown"])
        thread.join(timeout=15.0)
        shutil.rmtree(sockdir, ignore_errors=True)
    assert rc == [0]
    yield {"oat": oat, "trace": trace_path, "chrome": chrome_path}


@pytest.fixture(scope="module")
def trace(traced_submit) -> Trace:
    return Trace.from_dict(
        json.loads(traced_submit["trace"].read_text(encoding="utf-8"))
    )


def _by_id(trace: Trace) -> dict[str, object]:
    return {span.span_id: span for span in trace.walk()}


def test_one_trace_with_one_id_and_intact_identity(trace):
    assert len(trace.meta["trace_id"]) == 32
    spans = list(trace.walk())
    ids = [s.span_id for s in spans]
    assert all(len(i) == 16 and set(i) <= HEX for i in ids)
    assert len(ids) == len(set(ids)), "duplicate span ids"
    known = set(ids)
    assert not [s.name for s in spans if s.parent_id and s.parent_id not in known]
    # Structural nesting and id links agree everywhere.
    for span in spans:
        for child in span.children:
            assert child.parent_id == span.span_id


def test_server_request_parents_under_the_client_span(trace):
    client = trace.find("service.client.build")
    request = trace.find("service.server.request")
    assert client is not None and request is not None
    assert request.parent_id == client.span_id
    assert client.parent_id == ""  # the trace root


def test_every_shard_span_chains_to_the_request_root(trace):
    by_id = _by_id(trace)
    request = trace.find("service.server.request")
    shards = [s for s in trace.walk() if s.name == "service.pool.task"]
    assert len(shards) == 4
    for shard in shards:
        chain = []
        node = shard
        while node.parent_id:
            node = by_id[node.parent_id]
            chain.append(node)
        assert request in chain, f"shard span not under the request root"
        assert chain[-1].name == "service.client.build"
    # The shards really ran in their own processes.
    assert len({s.pid for s in shards}) == 4
    assert all(s.pid and s.pid != os.getpid() for s in shards)


def test_chrome_export_validates(traced_submit, trace):
    doc = json.loads(traced_submit["chrome"].read_text(encoding="utf-8"))
    events = doc["traceEvents"]
    slices = [e for e in events if e["ph"] == "X"]
    # Complete events: one per span, named, non-negative duration.
    assert len(slices) == sum(1 for _ in trace.walk())
    assert all(e["name"] and e["dur"] >= 0.0 for e in slices)
    # Strictly increasing timestamps per (pid, tid) row.
    rows: dict[tuple[int, int], list[float]] = {}
    for event in slices:
        rows.setdefault((event["pid"], event["tid"]), []).append(event["ts"])
    for key, ts_list in rows.items():
        assert all(a < b for a, b in zip(ts_list, ts_list[1:])), key
    # Flow ids pair up across pid boundaries — one arrow into each
    # shard process (client and server share this test's pid, so the
    # client->server hop is not a pid crossing here).
    starts = {e["id"]: e for e in events if e["ph"] == "s"}
    ends = {e["id"]: e for e in events if e["ph"] == "f"}
    assert set(starts) == set(ends) and len(starts) == 4
    shard_ids = {s.span_id for s in trace.walk() if s.name == "service.pool.task"}
    assert set(starts) == shard_ids
    for flow_id, start in starts.items():
        assert start["pid"] != ends[flow_id]["pid"]
    assert {e["pid"] for e in events} == {e["pid"] for e in slices}
    assert doc["otherData"]["trace_id"] == trace.meta["trace_id"]


def test_build_bytes_identical_with_tracing_off(traced_submit, dexfile):
    # No tracer installed here: the plain pipeline is the oracle.
    oracle = build_app(
        dexfile, CalibroConfig.cto_ltbo_plopti(groups=GROUPS)
    ).oat.to_bytes()
    assert traced_submit["oat"].read_bytes() == oracle
