"""docs/incremental.md must document the whole rebuild-model surface.

Same contract style as ``test_docs_coverage``: instrumentation names
are static literals, so the doc can be held to the code.  The
incremental doc owns two surfaces — every ``service.graph.*``
span/counter/histogram name, and every key of the ``GraphDelta``
accounting dict (the ledger's ``graph`` field and the report's
``graph`` summary block).
"""

from __future__ import annotations

import re
from pathlib import Path

from tests.observability.test_docs_coverage import emitted_names

REPO = Path(__file__).resolve().parents[2]
DOC = REPO / "docs" / "incremental.md"


def _documented() -> set[str]:
    return set(re.findall(r"`([a-zA-Z0-9_.]+)`", DOC.read_text(encoding="utf-8")))


def test_graph_metrics_exist():
    graph_names = {n for n in emitted_names() if n.startswith("service.graph.")}
    # Canaries: the rebuild accounting the CI gate rides on.
    assert {"service.graph.build", "service.graph.nodes_reused",
            "service.graph.delta_seconds"} <= graph_names
    assert len(graph_names) >= 10


def test_every_graph_metric_is_documented():
    graph_names = {n for n in emitted_names() if n.startswith("service.graph.")}
    missing = sorted(graph_names - _documented())
    assert not missing, (
        f"service.graph.* names emitted in src/ but absent from "
        f"docs/incremental.md: {missing}"
    )


def test_every_delta_field_is_documented():
    """``GraphDelta.as_dict()`` is the ledger/report schema for delta
    accounting — every key must appear in the doc."""
    from repro.service import GraphDelta

    missing = sorted(set(GraphDelta().as_dict()) - _documented())
    assert not missing, (
        f"GraphDelta fields absent from docs/incremental.md: {missing}"
    )

