"""``calibro build --ledger`` / ``compare`` / ``history`` /
``serve --metrics-file`` end to end."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.dex.serialize import save_dexfile
from repro.workloads import app_spec, generate_app


@pytest.fixture(scope="module")
def dex_json(tmp_path_factory):
    path = tmp_path_factory.mktemp("compare") / "wechat.dex.json"
    save_dexfile(generate_app(app_spec("Wechat", scale=0.1)).dexfile, str(path))
    return path


def _build(dex_json, tmp_path, name, *extra):
    out = tmp_path / f"{name}.oat"
    assert main(["build", str(dex_json), "-o", str(out), "--groups", "2",
                 *extra]) == 0
    return out


def test_identical_builds_compare_clean(tmp_path, dex_json, capsys):
    ledger = tmp_path / "ledger.jsonl"
    _build(dex_json, tmp_path, "a", "--ledger", str(ledger))
    _build(dex_json, tmp_path, "b", "--ledger", str(ledger))
    assert len(ledger.read_text().splitlines()) == 2
    capsys.readouterr()

    # Size metrics are byte-identical; wall time gets the absolute floor
    # (raised here so a loaded CI host cannot flake the test).
    rc = main(["compare", str(ledger), str(ledger), "--min-seconds", "5"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "0 regression(s)" in out


def test_synthetic_regression_fails_with_a_readable_report(tmp_path, dex_json, capsys):
    good = tmp_path / "good.jsonl"
    bad = tmp_path / "bad.jsonl"
    _build(dex_json, tmp_path, "good", "--ledger", str(good))
    # The "regressed" candidate: outlining off, so .text grows well past
    # the default 5% threshold — deterministic, no timing involved.
    _build(dex_json, tmp_path, "bad", "--no-ltbo", "--ledger", str(bad))
    capsys.readouterr()

    rc = main(["compare", str(good), str(bad), "--min-seconds", "5"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "REGRESSION" in out
    assert "text_size_after" in out and "reduction" in out

    # A threshold above the synthetic gap waves the same pair through.
    assert main(["compare", str(good), str(bad), "--threshold", "2.0",
                 "--min-seconds", "5"]) == 0


def test_compare_two_trace_files(tmp_path, dex_json, capsys):
    trace_a = tmp_path / "a.trace.json"
    trace_b = tmp_path / "b.trace.json"
    _build(dex_json, tmp_path, "ta", "--trace", str(trace_a))
    _build(dex_json, tmp_path, "tb", "--trace", str(trace_b))
    capsys.readouterr()
    rc = main(["compare", str(trace_a), str(trace_b), "--min-seconds", "5"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "compare (trace)" in out
    assert "link.text_bytes" in out  # sizes compared alongside phases


def test_mixed_kinds_exit_with_config_error(tmp_path, dex_json, capsys):
    ledger = tmp_path / "ledger.jsonl"
    trace = tmp_path / "t.trace.json"
    _build(dex_json, tmp_path, "m", "--ledger", str(ledger), "--trace", str(trace))
    capsys.readouterr()
    assert main(["compare", str(trace), str(ledger)]) == 2
    assert "cannot compare" in capsys.readouterr().err


def test_compare_missing_file_exits_with_config_error(tmp_path, capsys):
    assert main(["compare", str(tmp_path / "no.json"),
                 str(tmp_path / "pe.json")]) == 2
    assert "no such file" in capsys.readouterr().err


def test_history_prints_the_trajectory(tmp_path, dex_json, capsys):
    ledger = tmp_path / "ledger.jsonl"
    _build(dex_json, tmp_path, "h1", "--ledger", str(ledger))
    _build(dex_json, tmp_path, "h2", "--ledger", str(ledger))
    capsys.readouterr()

    assert main(["history", str(ledger)]) == 0
    out = capsys.readouterr().out
    assert "CTO+LTBO+PlOpti" in out and "wechat" in out
    assert "reduction" in out  # table header

    assert main(["history", str(ledger), "--config", "nope"]) == 0
    assert "no matching entries" in capsys.readouterr().out


def test_history_renders_a_mixed_v4_v5_ledger(tmp_path, capsys):
    """Records from before schema v5 carry a mining ``engine``; history
    reads them alongside v5 records and shows no engine column."""
    ledger = tmp_path / "mixed.jsonl"
    base = {"config": "CTO+LTBO", "label": "app", "text_size_before": 1200,
            "wall_seconds": 1.0, "timestamp": 1.0}
    lines = [
        {**base, "schema_version": 4, "engine": "suffixtree", "text_size_after": 1000},
        {**base, "schema_version": 5, "text_size_after": 990},
    ]
    ledger.write_text("".join(json.dumps(line) + "\n" for line in lines))

    assert main(["history", str(ledger)]) == 0
    out = capsys.readouterr().out
    header = [cell.strip() for cell in out.splitlines()[0].split("|")]
    assert header == ["config", "label", "builds", "text", "reduction", "drift", "wall"]
    row = [cell.strip() for cell in out.splitlines()[2].split("|")]
    assert row[:4] == ["CTO+LTBO", "app", "2", "990"]  # one trajectory


def test_serve_writes_metrics_and_ledger(tmp_path, dex_json, capsys):
    metrics = tmp_path / "metrics.prom"
    ledger = tmp_path / "serve.jsonl"
    assert main(["serve", str(dex_json), "-o", str(tmp_path / "out"),
                 "--groups", "2", "--metrics-file", str(metrics),
                 "--ledger", str(ledger)]) == 0
    out = capsys.readouterr().out
    assert f"metrics -> {metrics}" in out and f"ledger -> {ledger}" in out

    text = metrics.read_text(encoding="utf-8")
    assert "# TYPE calibro_service_builds counter" in text
    assert 'calibro_service_build_seconds_bucket{le="+Inf"} 1' in text

    [line] = ledger.read_text().splitlines()
    entry = json.loads(line)
    assert entry["label"] == "wechat"
    assert entry["text_size_after"] > 0
    assert len(entry["trace_digest"]) == 64  # serve installed a tracer


def test_history_plot_renders_a_sparkline(tmp_path, dex_json, capsys):
    ledger = tmp_path / "ledger.jsonl"
    _build(dex_json, tmp_path, "p1", "--ledger", str(ledger))
    _build(dex_json, tmp_path, "p2", "--ledger", str(ledger))
    _build(dex_json, tmp_path, "p3", "--ledger", str(ledger))
    capsys.readouterr()

    assert main(["history", str(ledger), "--plot"]) == 0
    out = capsys.readouterr().out
    assert "CTO+LTBO+PlOpti / wechat:" in out
    assert any(tick in out for tick in "▁▂▃▄▅▆▇█")
    assert "over 3 builds" in out

    assert main(["history", str(ledger), "--plot", "--config", "nope"]) == 0
    assert "no matching entries" in capsys.readouterr().out


def test_trace_chrome_exports_the_saved_trace(tmp_path, dex_json, capsys):
    trace = tmp_path / "build.trace.json"
    chrome = tmp_path / "build.chrome.json"
    _build(dex_json, tmp_path, "tc", "--trace", str(trace))
    capsys.readouterr()

    assert main(["trace", str(trace), "--chrome", str(chrome)]) == 0
    assert f"chrome trace -> {chrome}" in capsys.readouterr().out
    doc = json.loads(chrome.read_text(encoding="utf-8"))
    slices = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    names = {e["name"] for e in slices}
    assert {"build", "build.dex2oat", "build.link"} <= names
    assert len(doc["otherData"]["trace_id"]) == 32


def test_build_trace_chrome_writes_both_documents(tmp_path, dex_json, capsys):
    trace = tmp_path / "b.trace.json"
    chrome = tmp_path / "b.chrome.json"
    _build(dex_json, tmp_path, "bc", "--trace", str(trace),
           "--trace-chrome", str(chrome))
    out = capsys.readouterr().out
    assert f"chrome trace -> {chrome}" in out

    saved = json.loads(trace.read_text(encoding="utf-8"))
    doc = json.loads(chrome.read_text(encoding="utf-8"))
    # Both exports describe the same trace.
    assert doc["otherData"]["trace_id"] == saved["meta"]["trace_id"]
    span_count = 0
    stack = list(saved["spans"])
    while stack:
        node = stack.pop()
        span_count += 1
        stack.extend(node.get("children", []))
    assert len([e for e in doc["traceEvents"] if e["ph"] == "X"]) == span_count
