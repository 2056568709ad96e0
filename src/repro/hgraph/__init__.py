"""HGraph IR substrate: construction from dex bytecode and the
optimization pass pipeline."""

from repro.hgraph.builder import build_hgraph
from repro.hgraph.ir import HBasicBlock, HGraph, HInstruction, IRValidationError
from repro.hgraph.passes import OptimizationStats, optimize

__all__ = [
    "HBasicBlock",
    "HGraph",
    "HInstruction",
    "IRValidationError",
    "OptimizationStats",
    "build_hgraph",
    "optimize",
]
