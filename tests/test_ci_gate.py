"""The CI regression gate, run in-process so its contract cannot rot.

The scenarios write small synthetic ledgers: the gate's job is pairing
and verdicts, and :func:`repro.observability.diff.diff_entries` (already
covered by the observability suite) supplies the thresholds.  One
end-to-end scenario builds a real app twice through
:class:`BuildService` to prove service-written ledgers flow through
unmodified.
"""

from __future__ import annotations

import importlib.util
import io
import json
from pathlib import Path

import pytest

from repro.core.pipeline import CalibroConfig
from repro.observability.ledger import BuildLedger, LedgerEntry
from repro.service import BuildService
from repro.workloads import app_spec, generate_app

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "ci_gate.py"


@pytest.fixture(scope="module")
def gate():
    spec = importlib.util.spec_from_file_location("ci_gate", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _entry(config="CTO+LTBO", label="app", text_after=1000, wall=1.0):
    return LedgerEntry(
        config=config,
        label=label,
        text_size_before=1200,
        text_size_after=text_after,
        wall_seconds=wall,
        timestamp=1.0,
    )


def _write(path, entries):
    ledger = BuildLedger(path)
    for entry in entries:
        ledger.append(entry)
    return str(path)


def test_key_is_config_label(gate):
    entry = _entry(config="CTO", label="wechat")
    assert gate.entry_key(entry) == ("CTO", "wechat")


def test_v4_baseline_gates_fresh_v5_records(gate, tmp_path, capsys):
    """A known-good ledger written before schema v5 carries a mining
    ``engine`` per record; it still gates fresh records of the same
    ``(config, label)``."""
    baseline = tmp_path / "good-v4.jsonl"
    record = {**_entry(text_after=1000).to_dict(), "schema_version": 4,
              "engine": "suffixtree"}
    baseline.write_text(json.dumps(record) + "\n", encoding="utf-8")
    equal = _write(tmp_path / "equal.jsonl", [_entry(text_after=1000)])
    assert gate.main([equal, "--baseline", str(baseline)]) == 0
    assert "CTO+LTBO/app: ok" in capsys.readouterr().out
    grown = _write(tmp_path / "grown.jsonl", [_entry(text_after=1100)])
    assert gate.main([grown, "--baseline", str(baseline)]) == 1
    assert "CTO+LTBO/app: REGRESSED" in capsys.readouterr().out


def test_clean_ledger_passes(gate, tmp_path, capsys):
    path = _write(tmp_path / "ledger.jsonl", [_entry(wall=1.0), _entry(wall=1.01)])
    assert gate.main([path]) == 0
    out = capsys.readouterr().out
    assert ": ok" in out and "0 regression(s)" in out


def test_size_regression_fails_with_diff_report(gate, tmp_path, capsys):
    path = _write(
        tmp_path / "ledger.jsonl",
        [_entry(text_after=1000), _entry(text_after=1100)],  # +10% text
    )
    assert gate.main([path]) == 1
    out = capsys.readouterr().out
    assert "REGRESSED" in out
    assert "text_size_after" in out and "REGRESSION" in out


def test_wall_time_noise_floor(gate, tmp_path):
    # +20% wall time but only +20 ms absolute: under min-seconds, ok.
    path = _write(tmp_path / "l.jsonl", [_entry(wall=0.1), _entry(wall=0.12)])
    assert gate.main([path]) == 0
    # The same ledger fails once the floor is lowered.
    assert gate.main([path, "--min-seconds", "0.001"]) == 1


def test_keys_are_gated_independently(gate, tmp_path, capsys):
    path = _write(
        tmp_path / "ledger.jsonl",
        [
            _entry(label="a", text_after=1000),
            _entry(label="b", text_after=1000),
            _entry(label="a", text_after=1000),  # a: unchanged
            _entry(label="b", text_after=1150),  # b: regressed
        ],
    )
    assert gate.main([path]) == 1
    out = capsys.readouterr().out
    assert "CTO+LTBO/a: ok" in out
    assert "CTO+LTBO/b: REGRESSED" in out


def test_new_keys_never_fail(gate, tmp_path, capsys):
    path = _write(tmp_path / "ledger.jsonl", [_entry(label="first-ever")])
    assert gate.main([path]) == 0
    assert "new (no baseline entry)" in capsys.readouterr().out


def test_separate_baseline_ledger(gate, tmp_path, capsys):
    baseline = _write(tmp_path / "good.jsonl", [_entry(text_after=1000)])
    fresh = _write(tmp_path / "fresh.jsonl", [_entry(text_after=1100)])
    assert gate.main([fresh, "--baseline", baseline]) == 1
    # A generous threshold waves the same delta through.
    assert gate.main([fresh, "--baseline", baseline, "--threshold", "0.5"]) == 0


def test_missing_and_unreadable_ledgers_are_usage_errors(gate, tmp_path):
    assert gate.main([str(tmp_path / "absent.jsonl")]) == 2
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"schema_version": 999}\n{"config": "x"}\n')
    assert gate.main([str(bad)]) == 2
    fresh = _write(tmp_path / "fresh.jsonl", [_entry()])
    assert gate.main([fresh, "--baseline", str(tmp_path / "gone.jsonl")]) == 2


def test_empty_ledger_is_a_pass(gate, tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    assert gate.main([str(empty)]) == 0


def test_run_gate_accepts_a_stream(gate, tmp_path):
    path = _write(tmp_path / "l.jsonl", [_entry(), _entry(text_after=1150)])
    buffer = io.StringIO()
    assert gate.run_gate(path, out=buffer) == 1
    assert "REGRESSED" in buffer.getvalue()


def test_service_ledger_flows_through_the_gate(gate, tmp_path):
    """End to end: two identical BuildService builds of a real app are,
    by construction, regression-free."""
    dexfile = generate_app(app_spec("Wechat", scale=0.05)).dexfile
    path = tmp_path / "service.jsonl"
    config = CalibroConfig.cto_ltbo_plopti(groups=2)
    with BuildService(ledger=str(path)) as service:
        service.submit(dexfile, config, label="wechat")
        service.submit(dexfile, config, label="wechat")
    # min-seconds shields the (cached, fast) second build from wall
    # jitter; sizes are deterministic and identical.
    assert gate.main([str(path)]) == 0


def test_warm_build_going_cold_fails_the_gate(gate, tmp_path, capsys):
    """The ``service.cache.hit_rate`` rule: same sizes, same wall time,
    but the fresh entry's cache traffic went from warm to cold — the
    gate reds before wall time would move on a small app."""
    def traffic(hits, misses):
        return LedgerEntry(
            config="CTO+LTBO", label="app",
            text_size_before=1200, text_size_after=1000, wall_seconds=1.0,
            cache_hits=hits, cache_misses=misses, timestamp=1.0,
        )

    path = _write(tmp_path / "ledger.jsonl", [traffic(9, 1), traffic(1, 9)])
    assert gate.main([path]) == 1
    assert "service.cache.hit_rate" in capsys.readouterr().out
    # Steady warm traffic passes.
    steady = _write(tmp_path / "steady.jsonl", [traffic(9, 1), traffic(9, 1)])
    assert gate.main([steady]) == 0
