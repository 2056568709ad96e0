"""Trace output: JSON persistence and the text phase tree, including
the round trip through the ``calibro trace`` subcommand."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.observability import (
    TRACE_SCHEMA_VERSION,
    Span,
    Trace,
    load_trace,
    render_text,
    write_json,
)


@pytest.fixture
def trace() -> Trace:
    return Trace(
        spans=[
            Span(
                name="build",
                start=0.0,
                duration=2.0,
                attrs={"config": "cto_ltbo"},
                children=[
                    Span(name="build.dex2oat", start=0.0, duration=1.2),
                    Span(name="build.ltbo", start=1.2, duration=0.6),
                ],
            )
        ],
        counters={"ltbo.repeats_outlined": 36, "ltbo.bytes_saved": 12345},
        gauges={"plopti.peak_partition_size": 14.0},
        meta={"command": "build"},
    )


def test_json_round_trip(tmp_path, trace):
    path = tmp_path / "t.json"
    write_json(trace, str(path))
    back = load_trace(str(path))
    assert back.to_dict() == trace.to_dict()
    assert back.find("build.ltbo").duration == pytest.approx(0.6)
    assert back.meta == {"command": "build"}


def test_json_reporter_emits_versioned_document(tmp_path, trace):
    path = tmp_path / "t.json"
    write_json(trace, str(path))
    data = json.loads(path.read_text())
    assert data["version"] == TRACE_SCHEMA_VERSION
    assert data["counters"]["ltbo.bytes_saved"] == 12345


def test_render_text_tree_shape(trace):
    text = render_text(trace)
    lines = text.splitlines()
    assert lines[0].startswith("build [config=cto_ltbo]")
    assert "100.0%" in lines[0]
    assert lines[1].lstrip().startswith("├─ build.dex2oat")
    assert lines[2].lstrip().startswith("└─ build.ltbo")
    assert "60.0%" in lines[1]  # 1.2s of 2.0s
    assert "counters:" in text and "gauges:" in text
    assert "ltbo.bytes_saved" in text and "12,345" in text


def test_render_text_without_counters(trace):
    text = render_text(trace, counters=False)
    assert "counters:" not in text
    assert "ltbo.bytes_saved" not in text


def test_render_text_empty_trace():
    assert "(no spans recorded)" in render_text(Trace())


def test_cli_trace_round_trip(tmp_path, trace, capsys):
    """``calibro trace`` on a saved JSON prints exactly the rendered tree."""
    path = tmp_path / "t.json"
    write_json(trace, str(path))
    assert main(["trace", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.rstrip("\n") == render_text(load_trace(str(path)))
    assert "build.ltbo" in out and "plopti.peak_partition_size" in out

    assert main(["trace", str(path), "--no-counters"]) == 0
    out = capsys.readouterr().out
    assert "counters:" not in out
