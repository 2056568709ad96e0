#!/usr/bin/env python
"""Documentation checker: dead links, stale code names and broken
example code.

Checks README.md and everything under docs/:

* every relative markdown link ``[text](path)`` resolves to a file in
  the repository (``http(s)://``, ``mailto:`` and ``#anchor`` links are
  skipped; a ``path#anchor`` suffix is stripped before resolving);
* every backticked dotted name that starts with ``repro.`` resolves:
  its longest importable module prefix imports and ``getattr`` finds
  the rest;
* every backticked ``*.py`` path exists at the repository root or
  under ``src/repro/``;
* every fenced ```` ```python ```` block executes cleanly in a fresh
  namespace, with ``src/`` on ``sys.path`` and a temporary working
  directory (so examples may write files).  A block preceded by an
  ``<!-- doccheck: skip -->`` comment is exempt — use it for
  deliberately illustrative fragments.

Run directly (``python scripts/check_docs.py``) or via the tier-1
wrapper ``tests/test_check_docs.py``.  Exit code = number of problems.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import os
import re
import sys
import tempfile
import traceback
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_DOTTED = re.compile(r"(?<!`)`(repro(?:\.\w+)+)")
_PY_PATH = re.compile(r"`([\w./-]+\.py)`")
_FENCE = re.compile(r"^```python\s*$")
_SKIP_MARKER = "<!-- doccheck: skip -->"
_EXTERNAL = ("http://", "https://", "mailto:")


def doc_files() -> list[Path]:
    files = [REPO / "README.md"]
    files.extend(sorted((REPO / "docs").rglob("*.md")))
    return [f for f in files if f.exists()]


def check_links(path: Path) -> list[str]:
    problems = []
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        for target in _LINK.findall(line):
            if target.startswith(_EXTERNAL) or target.startswith("#"):
                continue
            resolved = (path.parent / target.split("#", 1)[0]).resolve()
            if not resolved.exists():
                problems.append(f"{path.relative_to(REPO)}:{lineno}: dead link -> {target}")
    return problems


def _resolves(dotted: str) -> bool:
    parts = dotted.split(".")
    for split in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        try:
            for attr in parts[split:]:
                obj = getattr(obj, attr)
        except AttributeError:
            return False
        return True
    return False


def check_names(path: Path) -> list[str]:
    """Backticked ``repro.`` names and ``*.py`` paths that no longer
    exist."""
    text = path.read_text(encoding="utf-8")
    problems = []
    for pattern, exists in (
        (_DOTTED, _resolves),
        (_PY_PATH, lambda p: (REPO / p).exists() or (REPO / "src" / "repro" / p).exists()),
    ):
        for match in pattern.finditer(text):
            name = match.group(1)
            if not exists(name):
                lineno = text.count("\n", 0, match.start()) + 1
                problems.append(f"{_display(path)}:{lineno}: stale code name -> {name}")
    return problems


def _display(path: Path) -> str:
    return str(path.relative_to(REPO)) if path.is_relative_to(REPO) else str(path)


def python_blocks(path: Path) -> list[tuple[int, str, bool]]:
    """(first line number, source, skip?) for each ```python fence."""
    lines = path.read_text(encoding="utf-8").splitlines()
    blocks = []
    i = 0
    while i < len(lines):
        if _FENCE.match(lines[i]):
            skip = any(
                _SKIP_MARKER in lines[j]
                for j in range(max(0, i - 2), i)
            )
            body = []
            i += 1
            first = i + 1
            while i < len(lines) and not lines[i].startswith("```"):
                body.append(lines[i])
                i += 1
            blocks.append((first, "\n".join(body), skip))
        i += 1
    return blocks


def check_code(path: Path) -> list[str]:
    problems = []
    for lineno, source, skip in python_blocks(path):
        if skip:
            continue
        where = f"{path.relative_to(REPO)}:{lineno}"
        with tempfile.TemporaryDirectory(prefix="doccheck-") as tmp:
            cwd = os.getcwd()
            os.chdir(tmp)
            try:
                # Examples may print; only the checker's own report
                # belongs on stdout.
                with contextlib.redirect_stdout(io.StringIO()):
                    exec(compile(source, where, "exec"), {"__name__": "__doccheck__"})
            except Exception:
                tb = traceback.format_exc(limit=-1).rstrip().splitlines()[-1]
                problems.append(f"{where}: example failed: {tb}")
            finally:
                os.chdir(cwd)
    return problems


def main() -> int:
    sys.path.insert(0, str(REPO / "src"))
    problems: list[str] = []
    checked_blocks = 0
    for path in doc_files():
        problems.extend(check_links(path))
        problems.extend(check_names(path))
        blocks = python_blocks(path)
        checked_blocks += sum(1 for _, _, skip in blocks if not skip)
        problems.extend(check_code(path))
    for problem in problems:
        print(problem)
    ok = len(doc_files())
    print(
        f"check_docs: {ok} files, {checked_blocks} python blocks, "
        f"{len(problems)} problem(s)"
    )
    return len(problems)


if __name__ == "__main__":
    with contextlib.suppress(KeyboardInterrupt):
        sys.exit(main())
