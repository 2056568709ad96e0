"""The span wrappers and the traced-run coverage guard."""

import os
import subprocess
import sys
import textwrap
import types

import pytest

from perfbench import layers, tracing

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def test_every_predicted_entry_point_is_installed():
    names = {tracing.span_key(m, a) for m, a, _l in tracing.ENTRY_POINTS}
    for workload, expected in tracing.EXPECTED.items():
        assert expected <= names, workload


def test_coverage_guard_names_missing_entry_points():
    spans = [{"name": n} for n in tracing.EXPECTED["cold_builds"] if n != "link"]
    assert tracing.coverage_gaps("cold_builds", spans) == ["link"]
    assert tracing.coverage_gaps("cold_builds", spans + [{"name": "link"}]) == []


def test_install_fails_when_an_entry_point_is_gone(monkeypatch):
    fake = types.ModuleType("perfbench_fake_module")
    monkeypatch.setitem(sys.modules, "perfbench_fake_module", fake)
    monkeypatch.setattr(tracing, "ENTRY_POINTS", (("perfbench_fake_module", "link", "linker"),))
    with pytest.raises(AttributeError):
        tracing.install(tracing.Recorder())


def test_wrappers_reach_names_bound_by_from_import():
    """``link`` and ``dex2oat`` are bound into ``repro.core.pipeline`` by
    ``from ... import``; a build must still record their spans (run in a
    fresh interpreter, since installing patches modules for good)."""
    script = textwrap.dedent("""
        import os, sys
        from perfbench import tracing
        from repro.core import build_app
        from repro.workloads import app_spec, generate_app
        from perfbench.program import cold_config
        from dataclasses import replace
        recorder = tracing.Recorder()
        tracing.install(recorder)
        recorder.request = "r1"
        build = build_app(generate_app(app_spec("Taobao", 0.1)).dexfile,
                          replace(cold_config(), jobs=1))
        names = {s["name"] for s in recorder.spans if s["request"] == "r1"}
        missing = tracing.EXPECTED["cold_builds"] - names
        link = [s for s in recorder.spans if s["name"] == "link"][0]
        assert link["text_bytes"] == build.text_size, link
        print(sorted(missing))
    """)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.join(ROOT, "src"), ROOT]))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=300, check=True).stdout
    assert out.strip() == "[]"


def test_executor_worker_time_moves_to_outline():
    spans = [
        {"id": 1, "parent": None, "pid": 1, "start": 0.0, "end": 1.0, "request": "r",
         "name": "outline_partitioned", "layer": "parallel", "groups": 8, "cached_groups": 2},
        {"id": 2, "parent": 1, "pid": 1, "start": 0.2, "end": 0.8, "request": "r",
         "name": "map_over_groups", "layer": "executor", "worker_seconds": 0.5,
         "tasks": 6, "payload_bytes": 100, "mine_s": 0.3, "select_s": 0.4,
         "rewrite_s": 0.3, "enumerated": 10, "outlined": 4},
    ]
    row = layers.request_layers(spans)["r"]
    assert row["parallel"] == pytest.approx(0.4)
    assert row["executor.overhead_s"] == pytest.approx(0.1)
    assert row["executor.map_s"] == pytest.approx(0.6)
    assert row["outline"] == pytest.approx(0.5)
    assert row["parallel.cached_groups"] == 2
