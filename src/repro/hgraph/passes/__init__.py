"""HGraph optimization passes (the dex2oat "opt passes" stage)."""

from repro.hgraph.passes.constant_folding import fold_constants
from repro.hgraph.passes.copy_propagation import propagate_copies
from repro.hgraph.passes.dce import eliminate_dead_code, liveness
from repro.hgraph.passes.gvn import value_number
from repro.hgraph.passes.inlining import inline_small_methods
from repro.hgraph.passes.licm import dominators, hoist_loop_invariants, natural_loops
from repro.hgraph.passes.manager import OptimizationStats, optimize
from repro.hgraph.passes.return_merging import merge_returns
from repro.hgraph.passes.unreachable import remove_unreachable

__all__ = [
    "OptimizationStats",
    "eliminate_dead_code",
    "dominators",
    "fold_constants",
    "hoist_loop_invariants",
    "inline_small_methods",
    "natural_loops",
    "liveness",
    "merge_returns",
    "optimize",
    "propagate_copies",
    "remove_unreachable",
    "value_number",
]
