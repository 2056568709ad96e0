"""docs/service.md must document the serving protocol and ServiceConfig.

The wire protocol module and the config dataclass are the sources of
truth: every op, event, refusal reason and config field must appear
(backticked) in docs/service.md, every row of the config table must
name a current field, and the documented protocol version must match
the code.
"""

from __future__ import annotations

import dataclasses
import re
from pathlib import Path

from repro.service.config import ServiceConfig
from repro.service.protocol import EVENTS, OPS, PROTOCOL_VERSION

DOC = Path(__file__).resolve().parents[2] / "docs" / "service.md"

#: The machine-readable refusal/error vocabulary the server emits
#: (server.py sends these as ``reason``/``code`` values).
REASONS = ("queue-full", "tenant-quota")
ERROR_CODES = ("protocol", "bad-request", "build-error", "unknown-build")


def _doc_text() -> str:
    return DOC.read_text(encoding="utf-8")


def _backticked(text: str) -> set[str]:
    # Token-shaped spans only: the naive ``[^`]+`` pairing desyncs on
    # ``` code fences and swallows whole blocks.
    return set(re.findall(r"`([a-z0-9_.\-]+)`", text))


def test_protocol_section_exists():
    assert "## The serving protocol" in _doc_text()


def test_every_op_is_documented():
    documented = _backticked(_doc_text())
    missing = sorted(set(OPS) - documented)
    assert not missing, f"protocol ops absent from docs/service.md: {missing}"


def test_every_event_is_documented():
    documented = _backticked(_doc_text())
    missing = sorted(set(EVENTS) - documented)
    assert not missing, f"protocol events absent from docs/service.md: {missing}"


def test_refusal_vocabulary_is_documented():
    documented = _backticked(_doc_text())
    missing = sorted((set(REASONS) | set(ERROR_CODES)) - documented)
    assert not missing, f"reasons/codes absent from docs/service.md: {missing}"


def test_documented_protocol_version_matches_code():
    assert f"currently {PROTOCOL_VERSION})" in _doc_text()


def test_every_service_config_field_is_documented():
    documented = _backticked(_doc_text())
    fields = {f.name for f in dataclasses.fields(ServiceConfig)}
    missing = sorted(fields - documented)
    assert not missing, (
        f"ServiceConfig fields absent from docs/service.md: {missing}"
    )


def test_every_documented_config_field_exists():
    """The reverse direction: a field removed from ServiceConfig must
    not linger as a row of the docs' config table."""
    section = _doc_text().split("\n## ServiceConfig\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `([a-z0-9_]+)` \|", section, flags=re.MULTILINE)
    assert rows, "no ServiceConfig table rows in docs/service.md"
    fields = {f.name for f in dataclasses.fields(ServiceConfig)}
    stale = sorted(set(rows) - fields)
    assert not stale, f"docs/service.md documents removed ServiceConfig fields: {stale}"
