"""Tier-1 wrapper for scripts/check_docs.py: the documentation may not
rot — no dead relative links, no stale code names or paths, and every
non-skipped ```python example must execute."""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def test_docs_have_no_dead_links_or_broken_examples():
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "check_docs.py")],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO,
    )
    assert proc.returncode == 0, f"check_docs failed:\n{proc.stdout}{proc.stderr}"
    # The checker actually looked at the docs it claims to guard.
    assert "0 problem(s)" in proc.stdout
    assert "files," in proc.stdout and not proc.stdout.startswith("0 files")


def test_stale_code_names_and_paths_are_reported(tmp_path):
    spec = importlib.util.spec_from_file_location(
        "check_docs", REPO / "scripts" / "check_docs.py"
    )
    check_docs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(check_docs)
    doc = tmp_path / "doc.md"
    doc.write_text(
        "Live: `repro.core.pipeline.build_app`, `core/pipeline.py`, `README.md`.\n"
        "Stale: `repro.core.no_such_module`, `repro.core.pipeline.no_such_name`\n"
        "and `core/no_such_module.py`.\n",
        encoding="utf-8",
    )
    problems = check_docs.check_names(doc)
    assert [p.split(": ", 1)[1] for p in problems] == [
        "stale code name -> repro.core.no_such_module",
        "stale code name -> repro.core.pipeline.no_such_name",
        "stale code name -> core/no_such_module.py",
    ]
    assert [p.split(":")[1] for p in problems] == ["2", "2", "3"]
