"""The HGraph optimization pipeline of the dex2oat substrate (paper
Fig. 5, the "opt passes" stage).

Pass order follows the classic recipe: clean the CFG, propagate facts,
value-number, clean up, and merge returns last (it deliberately creates
moves that earlier passes would otherwise churn on).  The whole pipeline
iterates to a fixed point with a small bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.hgraph.ir import HGraph
from repro.hgraph.passes.constant_folding import fold_constants
from repro.hgraph.passes.copy_propagation import propagate_copies
from repro.hgraph.passes.dce import eliminate_dead_code
from repro.hgraph.passes.gvn import value_number
from repro.hgraph.passes.licm import hoist_loop_invariants
from repro.hgraph.passes.return_merging import merge_returns
from repro.hgraph.passes.unreachable import remove_unreachable

__all__ = ["OptimizationStats", "optimize"]


@dataclass
class OptimizationStats:
    """Bookkeeping for one method's optimization run."""

    method_name: str
    instructions_before: int = 0
    instructions_after: int = 0
    iterations: int = 0
    pass_hits: dict[str, int] = field(default_factory=dict)


#: The pipeline ``optimize`` iterates, in order.
_PIPELINE: tuple[tuple[str, Callable[[HGraph], bool]], ...] = (
    ("unreachable", remove_unreachable),
    ("constant-folding", fold_constants),
    ("copy-propagation", propagate_copies),
    ("gvn", value_number),
    ("copy-propagation", propagate_copies),
    ("licm", hoist_loop_invariants),
    ("dce", eliminate_dead_code),
    ("unreachable", remove_unreachable),
)

#: The fixed-point bound on pipeline iterations.
_MAX_ITERATIONS = 4


def optimize(graph: HGraph) -> OptimizationStats:
    """Run the pipeline over ``graph`` to a bounded fixed point, then
    merge returns; returns the method's bookkeeping."""
    stats = OptimizationStats(
        method_name=graph.method_name,
        instructions_before=graph.instruction_count(),
    )
    for _ in range(_MAX_ITERATIONS):
        stats.iterations += 1
        any_change = False
        for name, pass_fn in _PIPELINE:
            if pass_fn(graph):
                stats.pass_hits[name] = stats.pass_hits.get(name, 0) + 1
                any_change = True
        graph.validate()
        if not any_change:
            break
    if merge_returns(graph):
        stats.pass_hits["return-merging"] = 1
        graph.validate()
    stats.instructions_after = graph.instruction_count()
    return stats
