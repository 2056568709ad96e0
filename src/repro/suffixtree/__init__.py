"""Repeat-mining substrate: the suffix-array repeat miner, plus the
group-parallel execution helpers backing PlOpti.

The public surface is :class:`SuffixArrayMiner` (see
:mod:`repro.suffixtree.miners`).  The paper's Ukkonen tree and its
repeat enumeration live in their home submodules
(:mod:`repro.suffixtree.ukkonen`, :mod:`repro.suffixtree.repeats`),
where they serve as the Figure 1 structure and the test reference.
"""

from repro.suffixtree.miners import SuffixArrayMiner
from repro.suffixtree.parallel import (
    available_parallelism,
    map_over_groups,
    partition_evenly,
)
from repro.suffixtree.repeats import (
    Repeat,
    brute_force_repeats,
    select_nonoverlapping,
)

__all__ = [
    "Repeat",
    "SuffixArrayMiner",
    "available_parallelism",
    "brute_force_repeats",
    "map_over_groups",
    "partition_evenly",
    "select_nonoverlapping",
]
