"""The async serve front door: admission, concurrency, cancellation,
fault surfacing, metrics.

The centerpiece is the deterministic eight-client integration test: a
blocker build pins the executor (a scripted ``slow`` fault at the
``serve:`` site), eight concurrent mixed-tenant clients then submit in
a fixed order — admission happens synchronously in the accept loop, so
who gets ``accepted`` and who gets ``overloaded`` (and for which
reason) is exact — and every accepted build must come back
byte-identical to the same build run directly through
``BuildService.build_many``.
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
import shutil
import socket
import tempfile
import threading

import pytest

from repro import observability as obs
from repro.core.errors import ConfigError, ServiceError
from repro.core.pipeline import CalibroConfig
from repro.dex.serialize import dexfile_to_json
from repro.oat.oatfile import OatFile
from repro.service import (
    AsyncBuildServer,
    BuildRequest,
    BuildService,
    CalibroClient,
    OverloadedError,
    ServiceConfig,
    serve_in_background,
)
from repro.service.faults import FaultPlan, armed
from repro.service.protocol import PROTOCOL_VERSION, BuildFailed
from repro.service.server import _Job
from repro.workloads import (
    app_spec,
    check_oat,
    diff_stream,
    generate_app,
    reference_results,
)

CONFIG = CalibroConfig.cto_ltbo_plopti(groups=4)


@pytest.fixture(scope="module")
def dexfiles():
    """Three distinct tiny apps — enough variety for cross-tenant work."""
    return {
        "a": generate_app(app_spec("Taobao", scale=0.08)).dexfile,
        "b": generate_app(app_spec("Taobao", scale=0.1)).dexfile,
        "c": generate_app(app_spec("Meituan", scale=0.08)).dexfile,
    }


@pytest.fixture(scope="module")
def reference(dexfiles):
    """The same builds run directly through ``build_many`` — the byte
    oracle every served build is held to."""
    with BuildService(ServiceConfig()) as service:
        reports = service.build_many([
            BuildRequest(dexfiles[key], CONFIG, label=key)
            for key in sorted(dexfiles)
        ])
    return {r.label: r.build.oat.to_bytes() for r in reports}


@contextlib.contextmanager
def _front_door(service, **kwargs):
    """A served socket in a short-path tempdir (AF_UNIX ~108-byte cap)."""
    sockdir = tempfile.mkdtemp(prefix="calibro-sock-")
    sock = os.path.join(sockdir, "s")
    server = AsyncBuildServer(service, sock, **kwargs)
    try:
        with serve_in_background(server):
            yield server, sock
    finally:
        shutil.rmtree(sockdir, ignore_errors=True)


# -- the acceptance-criteria integration test ---------------------------------


def test_eight_concurrent_clients_mixed_tenants(dexfiles, reference, tmp_path):
    ledger = tmp_path / "ledger.jsonl"
    metrics = tmp_path / "serve.prom"
    service = BuildService(ServiceConfig(
        ledger=str(ledger), metrics_path=str(metrics),
    ))
    # Submission script: with the blocker pinning the executor and
    # queue_depth=4 / tenant_quota=2, admission order decides exactly:
    #   A:a1 ok, A:a2 ok, A:a3 quota, B:b1 ok (queue now full),
    #   B:b2 full, B:b3 full, C:c1 full, C:c2 full.
    script = [
        ("A", "a1", "a", "accepted", None),
        ("A", "a2", "b", "accepted", None),
        ("A", "a3", "c", "overloaded", "tenant-quota"),
        ("B", "b1", "c", "accepted", None),
        ("B", "b2", "a", "overloaded", "queue-full"),
        ("B", "b3", "b", "overloaded", "queue-full"),
        ("C", "c1", "a", "overloaded", "queue-full"),
        ("C", "c2", "c", "overloaded", "queue-full"),
    ]
    outcomes: list[tuple[str, object]] = [None] * len(script)
    turn = [threading.Event() for _ in script] + [threading.Event()]

    def run_client(index: int, sock: str) -> None:
        tenant, label, app, _, _ = script[index]
        client = CalibroClient(sock, tenant=tenant, timeout=30.0)
        turn[index].wait(timeout=30.0)
        try:
            pending = client.submit(dexfiles[app], CONFIG, label=label)
        except OverloadedError as exc:
            outcomes[index] = ("overloaded", exc.reason)
            turn[index + 1].set()
            return
        turn[index + 1].set()  # next client submits; this one waits on
        result = pending.wait()  # ...its build concurrently
        outcomes[index] = ("accepted", result)

    plan = FaultPlan(seed=7, slow=1.0, slow_seconds=2.5,
                     match=("serve:blocker",), in_parent=True)
    with _front_door(service, queue_depth=4, tenant_quota=2) as (server, sock):
        with armed(plan):
            blocker = CalibroClient(sock, tenant="z", timeout=30.0)
            pending_blocker = blocker.submit(
                dexfiles["a"], CONFIG, label="blocker"
            )
            threads = [
                threading.Thread(target=run_client, args=(i, sock))
                for i in range(len(script))
            ]
            for thread in threads:
                thread.start()
            turn[0].set()
            for thread in threads:
                thread.join(timeout=60.0)
            blocker_result = pending_blocker.wait()
        status = CalibroClient(sock, timeout=30.0).status()
    service.close()

    # Every client got exactly the scripted outcome.
    for index, (tenant, label, app, kind, reason) in enumerate(script):
        got = outcomes[index]
        assert got is not None, f"client {label} never finished"
        assert got[0] == kind, f"client {label}: expected {kind}, got {got}"
        if kind == "overloaded":
            assert got[1] == reason, f"client {label}: wrong refusal reason"

    # Accepted builds are byte-identical to direct build_many output.
    assert blocker_result.oat_bytes == reference["a"]
    for index, (tenant, label, app, kind, _) in enumerate(script):
        if kind == "accepted":
            assert outcomes[index][1].oat_bytes == reference[app], (
                f"served build {label} diverged from build_many"
            )

    # Front-door accounting: 4 accepted (blocker + 3), 5 rejected.
    assert status["accepted"] == 4
    assert status["rejected"] == 5
    assert status["results"] == 4
    assert status["tenants"]["A"] == {
        "inflight": 0, "accepted": 2, "rejected": 1,
    }
    assert status["tenants"]["C"]["rejected"] == 2
    assert status["service"]["builds"] == 4

    # One ledger entry per accepted request, none for rejections.
    entries = [
        json.loads(line)
        for line in ledger.read_text().splitlines() if line
    ]
    assert sorted(e["label"] for e in entries) == ["a1", "a2", "b1", "blocker"]

    # service.server.* metrics flowed into the Prometheus exposition
    # (final flush happens as the serve loop drains).
    text = metrics.read_text()
    assert "calibro_service_server_accepted 4" in text
    assert "calibro_service_server_rejected 5" in text
    assert "calibro_service_server_rejected_quota 1" in text
    assert "calibro_service_server_rejected_queue 4" in text
    assert "calibro_service_server_queue_wait_seconds_count 4" in text
    assert "calibro_service_server_request_seconds_count 4" in text
    assert 'calibro_build_info{' in text and f'protocol="{PROTOCOL_VERSION}"' in text
    assert (
        'calibro_service_server_tenant_requests{outcome="accepted",tenant="A"} 2'
        in text
    )
    assert (
        'calibro_service_server_tenant_requests{outcome="rejected",tenant="C"} 2'
        in text
    )


# -- cancellation -------------------------------------------------------------


def test_cancel_while_queued_never_runs(dexfiles):
    service = BuildService(ServiceConfig())
    plan = FaultPlan(seed=7, slow=1.0, slow_seconds=1.5,
                     match=("serve:blocker",), in_parent=True)
    with _front_door(service, queue_depth=4) as (server, sock):
        with armed(plan):
            client = CalibroClient(sock, timeout=30.0)
            pending_blocker = client.submit(
                dexfiles["a"], CONFIG, label="blocker"
            )
            victim = client.submit(dexfiles["b"], CONFIG, label="victim")
            assert client.cancel(victim.build_id) is True
            with pytest.raises(ServiceError, match="cancelled"):
                victim.wait()
            assert pending_blocker.wait().oat_bytes
            # A finished build is past cancelling.
            assert client.cancel(pending_blocker.build_id) is False
        status = client.status()
    service.close()
    assert status["cancelled"] == 1
    assert status["results"] == 1
    assert status["service"]["builds"] == 1, "cancelled build must never run"


def test_finished_builds_release_their_dex_and_spans(dexfiles):
    """Regression: the live job table kept every finished build (its
    parsed dex and trace document) and the server-owned tracer adopted
    every request's span tree, which nothing exports — memory grew with
    each request.  Finished builds now leave the table, and a server
    that installed its own tracer folds in registries only."""
    requests = 5
    assert obs.current_tracer() is None  # the server will own its tracer
    service = BuildService(ServiceConfig())
    with _front_door(service) as (server, sock):
        tracer = server._tracer
        client = CalibroClient(sock, timeout=30.0)
        built = [
            client.build(dexfiles["a"], CONFIG, label=f"r{i}", want_oat=False)
            for i in range(requests)
        ]
    service.close()
    assert all(result.summary for result in built)
    gc.collect()
    assert not server._jobs
    assert sum(isinstance(o, _Job) for o in gc.get_objects()) == 0
    assert len(server._finished) == requests
    assert tracer.roots == []
    assert tracer.counters["service.server.accepted"] == requests
    assert tracer.counters["service.server.results"] == requests
    # The requests' registries still merged into the server's tracer.
    assert tracer.counters["service.builds"] == requests


# -- fault surfacing ----------------------------------------------------------


def test_pool_crash_is_absorbed_and_loop_stays_healthy(dexfiles, reference):
    """A crash-injected pool child is the pool ladder's problem: the
    served build still completes (serial fallback) and the accept loop
    keeps serving."""
    service = BuildService(ServiceConfig(max_workers=2))
    with _front_door(service) as (server, sock):
        client = CalibroClient(sock, timeout=60.0)
        with armed(FaultPlan(seed=1, crash=1.0, match=("pool:0",))):
            hurt = client.build(dexfiles["a"], CONFIG, label="a")
        clean = client.build(dexfiles["b"], CONFIG, label="b")
        status = client.status()
    service.close()
    assert hurt.oat_bytes == reference["a"]
    assert clean.oat_bytes == reference["b"]
    assert status["errors"] == 0
    assert status["service"]["pool"]["serial_fallbacks"] >= 1


def test_serve_site_error_becomes_structured_response(dexfiles):
    """The ``error`` fault action fires in the parent at the ``serve:``
    site: the client gets a structured ``error`` event (not a hang, not
    a dropped connection) and the server keeps serving."""
    service = BuildService(ServiceConfig())
    plan = FaultPlan(seed=3, error=1.0, match=("serve:boom",), in_parent=True)
    with _front_door(service) as (server, sock):
        client = CalibroClient(sock, timeout=30.0)
        with armed(plan):
            with pytest.raises(BuildFailed) as exc_info:
                client.build(dexfiles["a"], CONFIG, label="boom")
            assert exc_info.value.code == "build-error"
            assert "injected fault" in str(exc_info.value)
            # Non-matching labels build fine while the plan is armed...
            ok = client.build(dexfiles["a"], CONFIG, label="fine")
        status = client.status()
    service.close()
    assert ok.oat_bytes
    assert status["errors"] == 1
    assert status["results"] == 1
    assert status["service"]["builds"] == 1  # the failed build never ran


# -- progress events ----------------------------------------------------------


#: Each config with the phases its served build streams, in order.
PHASES = [
    (CalibroConfig.cto_ltbo_plopti(2).with_merging(),
     ["started", "dex2oat", "ltbo", "merge", "link"]),
    (CalibroConfig.baseline(), ["started", "dex2oat", "link"]),
    (CalibroConfig.cto_ltbo(), ["started", "dex2oat", "ltbo", "link"]),
]


@pytest.mark.parametrize("incremental", [False, True], ids=["batch", "incremental"])
def test_progress_events_name_each_phase(dexfiles, tmp_path, incremental):
    """A build streams one ``progress`` event per phase it runs; an
    incremental build reports its graph walk as one phase."""
    service = BuildService(ServiceConfig(cache_dir=tmp_path, incremental=incremental))
    with _front_door(service) as (server, sock):
        client = CalibroClient(sock, timeout=60.0)
        phases = [
            client.build(dexfiles["a"], config, label="a", want_oat=False).phases
            for config, _expected in PHASES
        ]
    service.close()
    if incremental:
        assert phases == [["started", "graph.delta"]] * len(PHASES)
    else:
        assert phases == [expected for _config, expected in PHASES]


# -- wire-level behaviour -----------------------------------------------------


def _raw_exchange(sock_path: str, lines: list[bytes]) -> list[dict]:
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as raw:
        raw.settimeout(10.0)
        raw.connect(sock_path)
        fh = raw.makefile("rb")
        responses = []
        for line in lines:
            raw.sendall(line)
            responses.append(json.loads(fh.readline()))
        return responses


def test_newer_protocol_version_is_refused_connection_survives():
    service = BuildService(ServiceConfig())
    with _front_door(service) as (server, sock):
        future = json.dumps(
            {"op": "status", "v": PROTOCOL_VERSION + 1}
        ).encode() + b"\n"
        good = json.dumps({"op": "status", "v": PROTOCOL_VERSION}).encode() + b"\n"
        refused, answered = _raw_exchange(sock, [future, good])
    service.close()
    assert refused["event"] == "error" and refused["code"] == "protocol"
    assert answered["event"] == "status"
    assert answered["stats"]["protocol_version"] == PROTOCOL_VERSION


def test_malformed_frames_get_protocol_errors():
    service = BuildService(ServiceConfig())
    with _front_door(service) as (server, sock):
        responses = _raw_exchange(sock, [
            b"this is not json\n",
            b"[1,2,3]\n",
            json.dumps({"op": "launch", "v": 1}).encode() + b"\n",
            json.dumps({"op": "build", "v": 1}).encode() + b"\n",  # no dex
        ])
    service.close()
    assert all(r["event"] == "error" and r["code"] == "protocol"
               for r in responses)


def test_wrong_config_type_is_a_bad_request(dexfiles):
    """A config value of the wrong type is refused at admission, so the
    build is never accepted and never fails inside the pipeline."""
    service = BuildService(ServiceConfig())
    request = {
        "op": "build", "v": PROTOCOL_VERSION,
        "dex": dexfile_to_json(dexfiles["a"]),
        "config": {**CONFIG.to_dict(), "parallel_groups": 2.5},
    }
    with _front_door(service) as (server, sock):
        [response] = _raw_exchange(sock, [json.dumps(request).encode() + b"\n"])
        status = CalibroClient(sock, timeout=10.0).status()
    service.close()
    assert response["event"] == "error" and response["code"] == "bad-request"
    assert "parallel_groups" in response["message"]
    assert status["accepted"] == 0


def test_shutdown_with_an_idle_connection_logs_no_error(caplog):
    """A client still connected when the server stops: its handler ends
    with the loop, and asyncio records no error for it."""
    service = BuildService(ServiceConfig())
    status = json.dumps({"op": "status", "v": PROTOCOL_VERSION}).encode() + b"\n"
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as raw:
        raw.settimeout(10.0)
        with caplog.at_level("ERROR", logger="asyncio"):
            with _front_door(service) as (server, sock):
                raw.connect(sock)
                raw.sendall(status)
                assert json.loads(raw.makefile("rb").readline())["event"] == "status"
    service.close()
    errors = [r for r in caplog.records if r.name == "asyncio" and r.levelname == "ERROR"]
    assert errors == [], [r.getMessage() for r in errors]


def test_unknown_cancel_target_is_an_error():
    service = BuildService(ServiceConfig())
    with _front_door(service) as (server, sock):
        client = CalibroClient(sock, timeout=10.0)
        with pytest.raises(ServiceError, match="no such build"):
            client.cancel("b999")
    service.close()


# -- configuration and idle behaviour -----------------------------------------


@pytest.mark.parametrize("kwargs", [
    {"queue_depth": 0},
    {"tenant_quota": 0},
    {"max_concurrent": 0},
    {"flush_interval": 0.0},
    {"flush_interval": -1.0},
])
def test_server_validation(kwargs):
    service = BuildService(ServiceConfig())
    try:
        with pytest.raises(ConfigError):
            AsyncBuildServer(service, "/tmp/never-bound.sock", **kwargs)
    finally:
        service.close()


def test_idle_flush_keeps_exposition_fresh(tmp_path):
    """A serve loop with no traffic still refreshes the metrics file on
    the --flush-interval timer (the carried-forward long-idle gap)."""
    import time

    metrics = tmp_path / "idle.prom"
    service = BuildService(ServiceConfig(metrics_path=str(metrics)))
    with _front_door(service, flush_interval=0.1) as (server, sock):
        deadline = time.monotonic() + 5.0
        while not metrics.exists() and time.monotonic() < deadline:
            time.sleep(0.05)
        assert metrics.exists(), "idle flush never wrote the exposition"
    service.close()
    text = metrics.read_text()
    assert "calibro_build_info" in text
    assert "calibro_service_server_flushes" in text


# -- the differential oracle through the served incremental path --------------


def _loop_methods(dexfile) -> frozenset[str]:
    """Methods with a backward branch.  Edits leave them alone: a nudged
    loop constant can multiply the trip count of the UI script."""
    return frozenset(
        method.name
        for method in dexfile.all_methods()
        if any(t <= i for i, instr in enumerate(method.code) for t in instr.branch_targets())
    )


def test_served_incremental_builds_match_the_interpreter(tmp_path):
    """A diff stream (edits and one addition) submitted through the
    client to an incremental, 2-shard, merging server: every returned
    OAT runs the app's UI script on the emulator exactly as the
    interpreter runs that version of the dex."""
    app = generate_app(app_spec("Taobao", scale=0.2))
    config = CalibroConfig.cto_ltbo_plopti(4).with_merging()
    protected = frozenset(app.entry_points) | _loop_methods(app.dexfile)
    versions = [app.dexfile] + [
        dex
        for dex, _mutation in diff_stream(
            app.dexfile, steps=4, seed=5, kinds=("edit", "add", "edit", "edit"),
            protected=protected,
        )
    ]
    probes = [(method, list(args)) for method, args in app.ui_script.iterate()]
    service = BuildService(ServiceConfig(cache_dir=tmp_path, incremental=True, shards=2))
    with _front_door(service) as (server, sock):
        client = CalibroClient(sock, timeout=60.0)
        results = [client.build(dex, config, label="app") for dex in versions]
    service.close()
    for index, (dex, result) in enumerate(zip(versions, results)):
        expected = reference_results(dex, probes, native_handlers=app.native_handlers)
        outcome = check_oat(
            OatFile.from_bytes(result.oat_bytes), dex, probes, expected,
            native_handlers=app.native_handlers, config_name=f"v{index}",
        )
        assert outcome.ok, (index, outcome.mismatches[:3])
        assert outcome.calls_checked == len(probes) > 0
    # The versions after the first were served as deltas.
    for result in results[1:]:
        assert result.summary["graph"]["nodes_reused"] > 0
