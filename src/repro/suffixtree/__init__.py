"""Repeat-mining substrate: pluggable engines behind one protocol, plus
the group-parallel execution helpers backing PlOpti.

The public surface is the :class:`RepeatMiner` protocol and its two
engines (:class:`SuffixTreeMiner`, :class:`SuffixArrayMiner`), resolved
by name through :func:`get_miner` — see :mod:`repro.suffixtree.miners`.
The raw tree and repeat enumeration live in their home submodules
(:mod:`repro.suffixtree.ukkonen`, :mod:`repro.suffixtree.repeats`).
"""

from repro.suffixtree.miners import (
    DEFAULT_ENGINE,
    ENGINES,
    RepeatMiner,
    SuffixArrayMiner,
    SuffixTreeMiner,
    get_miner,
)
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
    "DEFAULT_ENGINE",
    "ENGINES",
    "Repeat",
    "RepeatMiner",
    "SuffixArrayMiner",
    "SuffixTreeMiner",
    "available_parallelism",
    "brute_force_repeats",
    "get_miner",
    "map_over_groups",
    "partition_evenly",
    "select_nonoverlapping",
]
