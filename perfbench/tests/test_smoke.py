"""Tiny-size runs of every workload, untraced and traced, through the
same command the benchmark is run with."""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _run(cwd, workload, trace, seconds="1"):
    command = SPEC["command"] + [
        "--workload", workload, "--seed", "3", "--seconds", seconds,
        "--trace", str(trace), "--size", "tiny",
    ]
    command[0] = sys.executable if command[0] == "python3" else command[0]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_reports_every_metric(workload, trace):
    done = _run(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr[-3000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stdout[-3000:]
    assert result["failed"] == 0 and result["attempted"] >= 100
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_exact_metrics_do_not_depend_on_the_seed():
    first = json.loads(_run(ROOT, "cold_builds", 0).stdout.strip().splitlines()[-1])
    command_seed = SPEC["command"] + [
        "--workload", "cold_builds", "--seed", "4", "--seconds", "1", "--trace", "0",
        "--size", "tiny"]
    command_seed[0] = sys.executable
    done = subprocess.run(command_seed, cwd=ROOT, capture_output=True, text=True, timeout=600)
    second = json.loads(done.stdout.strip().splitlines()[-1])
    for name in ("text_bytes", "size_reduction_pct", "runtime_cycles", "ok_pct"):
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def test_fails_without_the_program_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
