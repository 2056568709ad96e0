"""docs/observability.md must document every span/counter/gauge name,
and document no name the code has stopped emitting.

Instrumentation names are static string literals by convention (no
f-strings), exactly so this test can hold the documentation to the
code.  If it fails, either the doc is missing a name, a name was built
dynamically, or a row outlived the name it documents — all are bugs.
"""

from __future__ import annotations

import re
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src" / "repro"
DOC = REPO / "docs" / "observability.md"

#: obs.span(...) / tracer.span(...) / obs.counter_add(...) /
#: obs.gauge_set(...) / obs.gauge_max(...) / obs.histogram_observe(...),
#: with the name literal possibly wrapped onto the next line by the
#: formatter.
_NAME_CALL = re.compile(
    r"\b(?:span|counter_add|gauge_set|gauge_max|histogram_observe)"
    r"\(\s*\"([^\"]+)\""
)

#: A table row of the doc that opens with a dotted metric or span name.
_ROW_NAME = re.compile(r"^\| `([a-z0-9_]+(?:\.[a-z0-9_]+)+)`", re.MULTILINE)

#: A one-line string literal, double- or single-quoted.
_LITERAL = re.compile(r"\"([^\"\n]*)\"|'([^'\n]*)'")


def emitted_names() -> set[str]:
    names: set[str] = set()
    for path in sorted(SRC.rglob("*.py")):
        if path.is_relative_to(SRC / "observability"):
            continue  # the substrate itself only names spans in examples
        names.update(_NAME_CALL.findall(path.read_text(encoding="utf-8")))
    return names


def test_instrumentation_exists():
    names = emitted_names()
    # Canaries from each instrumented layer — if these disappear the
    # regex (or the instrumentation) broke.
    assert {"build", "dex2oat.codegen", "ltbo.group", "link.relocate",
            "emulator.cycles", "suffix_tree.nodes",
            "mine.repeat.length", "service.cache.lookup_seconds",
            "service.server.accepted", "service.server.rejected_quota",
            "service.server.queue_wait_seconds"} <= names
    assert len(names) > 40


def test_every_name_is_documented():
    doc = DOC.read_text(encoding="utf-8")
    documented = set(re.findall(r"`([a-z0-9_.]+)`", doc))
    missing = sorted(emitted_names() - documented)
    assert not missing, (
        f"span/counter names emitted in src/ but absent from "
        f"docs/observability.md: {missing}"
    )


def test_every_documented_name_is_in_the_source():
    """The reverse direction: every dotted name opening a table row must
    still appear as a string literal under ``src/repro`` (names held in
    a class attribute, like the passes' ``build.ltbo``/``build.merge``
    phase spans, count)."""
    literals: set[str] = set()
    for path in sorted(SRC.rglob("*.py")):
        for double, single in _LITERAL.findall(path.read_text(encoding="utf-8")):
            literals.add(double or single)
    rows = _ROW_NAME.findall(DOC.read_text(encoding="utf-8"))
    assert len(rows) > 100  # the row regex still matches the tables
    stale = sorted(set(rows) - literals)
    assert not stale, (
        f"docs/observability.md rows name nothing under src/repro: {stale}"
    )


def test_trace_schema_fields_are_documented():
    """v3 span identity (span_id/parent_id/pid) and the trace meta keys
    are documented surface."""
    doc = DOC.read_text(encoding="utf-8")
    for name in ("span_id", "parent_id", "pid", "trace_id", "epoch_unix"):
        assert f"`{name}`" in doc, f"docs/observability.md missing `{name}`"


def test_every_ledger_field_is_documented():
    """The ledger record schema is part of the documented surface."""
    from repro.observability import LedgerEntry

    entry = LedgerEntry(config="c", meta={"k": 1})
    doc = DOC.read_text(encoding="utf-8")
    documented = set(re.findall(r"`([a-z0-9_.]+)`", doc))
    missing = sorted(set(entry.to_dict()) - documented)
    assert not missing, (
        f"ledger fields emitted by LedgerEntry.to_dict but absent from "
        f"docs/observability.md: {missing}"
    )
