"""Repeat datatype, enumeration and non-overlap selection.

Three pieces live here beyond raw index traversal:

* :class:`Repeat` — the index-neutral repeat record that the miner
  (:mod:`repro.suffixtree.miners`), the Ukkonen tree and the oracle
  all yield;
* :func:`select_nonoverlapping` — the "small modification ... to
  selectively skip" overlapping occurrences the paper mentions in
  Section 2.1.2 ("ana" overlaps itself in "banana"): occurrences claimed
  for outlining must not overlap, or the same bytes would be outlined
  twice;
* :func:`brute_force_repeats` — an exhaustive reference oracle with the
  same signature and ordering contract as the miner, so property tests
  can compare the miner, the tree and the oracle drop-in.

**Ordering contract.**  :func:`enumerate_repeats`,
:func:`brute_force_repeats` and ``SuffixArrayMiner.repeats()`` return
their repeats sorted ascending by ``(length, first)``.  A branching
repeat is uniquely identified by that pair (the subsequence at
``[first, first + length)`` *is* the repeat), so the order — like the
repeats themselves — does not depend on the index that found them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.suffixtree.ukkonen import SuffixTree

__all__ = ["Repeat", "brute_force_repeats", "enumerate_repeats", "select_nonoverlapping"]


@dataclass(frozen=True)
class Repeat:
    """A branching (right-maximal) repeated sequence found by a miner.

    ``count`` is the raw number of (possibly overlapping) occurrences —
    non-overlap filtering happens later, when the outliner claims
    concrete positions.  ``first`` is the smallest occurrence start:
    together with ``length`` it identifies the repeat independently of
    which index found it, which is what makes benefit-ranked selection
    (and therefore the final OAT bytes) the same from the suffix array
    as from the paper's suffix tree.

    ``node`` is an index-private handle (LCP interval index, or
    suffix-tree node id) used to resolve :meth:`positions`; ``-1`` marks
    repeats with no index behind them (the brute-force oracle).
    """

    length: int
    count: int
    first: int
    node: int = -1

    def positions(self, miner) -> list[int]:
        """Sorted start positions of all occurrences (possibly
        overlapping), resolved against the miner (or bare
        :class:`SuffixTree`) that produced this repeat."""
        if isinstance(miner, SuffixTree):
            return miner.occurrences(self.node)
        return miner.occurrences(self)


def enumerate_repeats(
    tree: SuffixTree,
    min_length: int = 2,
    min_count: int = 2,
    max_length: int | None = None,
) -> list[Repeat]:
    """Enumerate a suffix tree's internal nodes as candidate repeats.

    Every internal node of depth >= ``min_length`` with >= ``min_count``
    descendant leaves is a repeat (paper Section 2.2 step 3); nodes
    deeper than ``max_length`` are skipped.  Nested nodes yield nested
    candidates (e.g. both "na" and "ana"); the benefit model decides
    which to outline.  Returned in ascending ``(length, first)`` order —
    the module-level ordering contract.
    """
    out = []
    for node in tree.internal_nodes():
        length = tree.string_depth(node)
        count = tree.leaf_count(node)
        if length < min_length or count < min_count:
            continue
        if max_length is not None and length > max_length:
            continue
        out.append(
            Repeat(
                length=length,
                count=count,
                first=tree.first_occurrence(node),
                node=node,
            )
        )
    out.sort(key=lambda r: (r.length, r.first))
    return out


def select_nonoverlapping(positions: Sequence[int], length: int) -> list[int]:
    """Greedy left-to-right maximum selection of non-overlapping occurrences.

    For equal-length intervals, taking the leftmost compatible occurrence
    first is optimal (it is the classic activity-selection argument), so
    this computes the true maximum number of non-overlapping occurrences.
    """
    if length <= 0:
        raise ValueError("length must be positive")
    chosen: list[int] = []
    last_end = None
    for pos in sorted(positions):
        if last_end is None or pos >= last_end:
            chosen.append(pos)
            last_end = pos + length
    return chosen


#: Unique "end of sequence" follower — distinct from every real symbol,
#: so the suffix ending at the sequence boundary branches like it does
#: under the tree's internal terminal.
_END = object()


def brute_force_repeats(
    sequence: Sequence[int],
    min_length: int = 2,
    min_count: int = 2,
    max_length: int | None = None,
) -> list[Repeat]:
    """All branching repeats by exhaustive search (the test oracle).

    Same signature and semantics as ``SuffixArrayMiner.repeats()``: a
    subsequence qualifies when it is at least ``min_length`` (and at
    most ``max_length``) long, occurs at least ``min_count`` times, and
    is *right-branching* — its occurrences are followed by at least two
    distinct symbols, counting the end of the sequence as a unique
    follower.  Those are exactly the suffix tree's internal nodes /
    the suffix array's LCP intervals.  Returned in ascending
    ``(length, first)`` order (the module-level ordering contract) with
    ``node=-1`` — oracle repeats carry no index to resolve positions
    against.  O(n²·L); for tests only.
    """
    seq = tuple(sequence)
    n = len(seq)
    out: list[Repeat] = []
    top = n if max_length is None else min(max_length, n)
    for length in range(min_length, top + 1):
        occurrences: dict[tuple[int, ...], list[int]] = {}
        for i in range(n - length + 1):
            occurrences.setdefault(seq[i : i + length], []).append(i)
        any_repeat = False
        for sub, positions in occurrences.items():
            if len(positions) < min_count:
                continue
            any_repeat = True
            followers = {
                seq[p + length] if p + length < n else _END for p in positions
            }
            if len(followers) >= 2:
                out.append(
                    Repeat(length=length, count=len(positions), first=positions[0])
                )
        if not any_repeat:
            break
    out.sort(key=lambda r: (r.length, r.first))
    return out
