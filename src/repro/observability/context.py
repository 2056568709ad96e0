"""Trace-context propagation across the service's process boundaries.

One build request flows through four processes — client →
:class:`~repro.service.server.AsyncBuildServer` →
:class:`~repro.service.BuildService` → shard/pool workers — and each of
them carries its own :class:`~repro.observability.Tracer`.  For the
resulting spans to merge into *one* distributed trace, every process
must agree on the trace identity and on who its causal parent is.
:class:`TraceContext` is that agreement: a 16-byte ``trace_id`` shared
by every span of the request, the ``span_id`` of the parent span in the
upstream process, and a sampling flag.

The context travels two ways:

* **over the wire** — as the optional ``trace`` field of a protocol
  request (:meth:`to_dict` / :meth:`from_dict`); unknown fields pass
  through v1 servers untouched, so the protocol stays v1-compatible;
* **into executor children** — as a pickled argument sent with each
  dispatched chunk (:mod:`repro.suffixtree.parallel`).

A tracer constructed with a context mints spans whose ``trace_id`` and
``parent_id`` chain back to the upstream span; the parent process then
grafts the child's snapshot into its own trace with
:meth:`~repro.observability.Tracer.adopt`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Mapping

__all__ = ["TraceContext"]


def _require_hex(value: str, width: int, what: str) -> str:
    from repro.core.errors import CalibroError

    if (
        not isinstance(value, str)
        or len(value) != width
        or any(c not in "0123456789abcdef" for c in value)
    ):
        raise CalibroError(
            f"trace context {what} must be {width} lowercase hex chars, "
            f"got {value!r}"
        )
    return value


@dataclass(frozen=True)
class TraceContext:
    """The identity one build request carries across process boundaries.

    ``trace_id`` is 32 lowercase hex chars (16 random bytes) shared by
    every span of the request.  ``span_id`` is the 16-hex id of the
    parent span in the upstream process — empty for a root context,
    where the request has no upstream parent.  ``sampled=False``
    downgrades span recording in every tracer the context reaches
    (:meth:`~repro.observability.Tracer.snapshot` ships registries
    only — counters/gauges/histograms still aggregate exactly, spans
    are dropped at the export boundary); the flag propagates to child
    contexts, so one unsampled request stays unsampled across the
    server, the build service and every shard/pool worker it touches.
    """

    trace_id: str
    span_id: str = ""
    sampled: bool = True

    def __post_init__(self) -> None:
        _require_hex(self.trace_id, 32, "trace_id")
        if self.span_id:
            _require_hex(self.span_id, 16, "span_id")

    @classmethod
    def new(cls) -> "TraceContext":
        """Mint a fresh root context (new trace, no upstream parent)."""
        return cls(trace_id=os.urandom(16).hex())

    def child(self, span_id: str) -> "TraceContext":
        """The context a downstream process should inherit when its
        work is caused by the span with ``span_id``."""
        return TraceContext(
            trace_id=self.trace_id, span_id=span_id, sampled=self.sampled
        )

    # -- wire format (protocol ``trace`` field) -----------------------------

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"trace_id": self.trace_id, "sampled": self.sampled}
        if self.span_id:
            out["span_id"] = self.span_id
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TraceContext":
        from repro.core.errors import CalibroError

        if not isinstance(data, Mapping):
            raise CalibroError(
                f"trace context must be a mapping, got {type(data).__name__}"
            )
        return cls(
            trace_id=str(data.get("trace_id", "")),
            span_id=str(data.get("span_id", "") or ""),
            sampled=bool(data.get("sampled", True)),
        )
