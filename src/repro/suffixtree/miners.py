"""The repeat miner: a suffix array, its LCP array and the LCP intervals.

LTBO's cost is dominated by building one index per candidate group and
enumerating its maximal repeats (paper §3.3.3, §3.4.1).  The paper
indexes each group with a suffix tree and reads the repeats off its
internal nodes (§2.2).  :class:`SuffixArrayMiner` answers the same two
questions from a suffix array instead:

* ``repeats(min_length=, min_count=, max_length=)`` — every *branching*
  (right-maximal) repeated subsequence as a :class:`~repro.suffixtree.
  repeats.Repeat`, in the canonical ``(length, first)`` ascending order;
* ``occurrences(repeat)`` — the sorted start positions of one of its
  own repeats.

The LCP intervals with ``lcp >= 1`` [Abouelhoda et al. 2004] are in
exact bijection with the suffix tree's internal nodes — same lengths,
counts and occurrence sets — so the miner reports exactly the repeats
the paper's tree does.  The Ukkonen tree
(:mod:`repro.suffixtree.ukkonen` with
:func:`~repro.suffixtree.repeats.enumerate_repeats`) stays as the
Figure 1 structure and as the reference the property suite checks this
miner against, together with the exhaustive
:func:`~repro.suffixtree.repeats.brute_force_repeats` oracle.

A branching repeat is uniquely identified by ``(length, first)``, so
every consumer that orders repeats by benefit with the ``first``
tie-break (see :func:`repro.core.outline.outline_group`) emits the same
bytes it would from the tree.
"""

from __future__ import annotations

from typing import Sequence

try:  # numpy accelerates the suffix sort; everything works without it.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised on numpy-less hosts
    _np = None

from repro import observability as obs
from repro.suffixtree.repeats import Repeat

__all__ = ["SuffixArrayMiner"]


class SuffixArrayMiner:
    """The repeat index over one symbol sequence.

    The array-based pipeline does strictly sequential integer work over
    flat lists (no per-node dicts, no subtree walks), which is why it
    beats the pure-Python Ukkonen tree on the same inputs —
    ``benchmarks/bench_engine_mining.py`` holds it to >= 2x.
    """

    def __init__(self, sequence: Sequence[int]):
        with obs.span("mine.suffixarray"):
            symbols = list(sequence)
            #: Input length, excluding the internal sentinel.
            self.sequence_length = len(symbols)
            #: ``(length, lb, rb, first)`` per LCP interval with
            #: ``lcp >= 1``, i.e. per internal suffix-tree node:
            #: ``sa[lb..rb]`` is the occurrence set and ``first`` its min.
            self._sa, self._intervals = _build_index(symbols)

    @property
    def node_count(self) -> int:
        """Index size: suffixes + LCP intervals (the suffix-tree analog
        of leaves + internal nodes).  Feeds ``OutlineStats.tree_nodes``."""
        return len(self._sa) + len(self._intervals)

    def repeats(
        self,
        *,
        min_length: int = 2,
        min_count: int = 2,
        max_length: int | None = None,
    ) -> list[Repeat]:
        with obs.span("mine.suffixarray"):
            out = [
                Repeat(length=length, count=rb - lb + 1, first=first, node=index)
                for index, (length, lb, rb, first) in enumerate(self._intervals)
                if length >= min_length
                and rb - lb + 1 >= min_count
                and (max_length is None or length <= max_length)
            ]
            out.sort(key=lambda r: (r.length, r.first))
        if obs.current_tracer() is not None:
            for repeat in out:
                obs.histogram_observe("mine.repeat.length", repeat.length)
        return out

    def occurrences(self, repeat: Repeat) -> list[int]:
        _length, lb, rb, _first = self._intervals[repeat.node]
        return sorted(self._sa[lb : rb + 1])


# -- suffix array construction --------------------------------------------------


def _build_index(symbols: list[int]) -> tuple[list[int], list[tuple[int, int, int, int]]]:
    """``(suffix array, LCP intervals)`` over ``symbols`` + a unique
    smallest end sentinel.

    Dispatches to the numpy pipeline when numpy is available — prefix
    doubling for the sort, rank-table lookups for the LCP array and
    ``minimum.reduceat`` for the interval minima, every O(n log n) pass
    in C — and to the pure-Python linear-time reference (SA-IS + Kasai +
    min-carrying interval stack) otherwise: below 64 symbols the numpy
    call overhead outweighs the C loops.  Both paths produce the
    identical index; the miner test suite cross-checks them.
    """
    if _np is not None and len(symbols) >= 64:
        return _index_numpy(symbols)
    order = {sym: rank for rank, sym in enumerate(sorted(set(symbols)), 1)}
    ranks = [order[sym] for sym in symbols]
    ranks.append(0)
    sa = _sais(ranks, len(order) + 1)
    return sa, _lcp_intervals(sa, _kasai(ranks, sa))


def _doubling_numpy(s):
    """Manber-Myers prefix doubling on numpy: sort by ``(rank[i],
    rank[i+step])`` pairs, re-rank, double ``step`` until all ranks are
    distinct.  Returns ``(sa, levels)`` where ``levels[j]`` ranks every
    position by its (end-padded) prefix of length ``2**j`` — the sparse
    table the vectorized LCP computation walks afterwards.

    The pair sort is one stable argsort of ``rank * (n+1) + next_rank``
    (both ranks are ``< n``, so the packed key cannot collide), which is
    measurably cheaper than a two-key ``lexsort``.  The final all-ranks-
    distinct table is *not* appended to ``levels``: distinctness at
    prefix length ``2**j`` bounds every LCP by ``2**j - 1``, which the
    lower levels already decompose exactly.
    """
    rank = s
    n = len(rank)
    levels = [rank]
    step = 1
    while True:
        second = _np.full(n, 0, dtype=_np.int64)
        second[: n - step] = rank[step:] + 1
        key = rank * _np.int64(n + 1) + second
        order = _np.argsort(key, kind="stable")
        key_sorted = key[order]
        changed = key_sorted[1:] != key_sorted[:-1]
        if bool(changed.all()):
            return order, levels
        fresh = _np.empty(n, dtype=_np.int64)
        fresh[0] = 0
        fresh[1:] = _np.cumsum(changed)
        rank = _np.empty(n, dtype=_np.int64)
        rank[order] = fresh
        levels.append(rank)
        step *= 2


def _index_numpy(symbols: list[int]) -> tuple[list[int], list[tuple[int, int, int, int]]]:
    """The numpy index pipeline behind :func:`_build_index`."""
    _uniques, inverse = _np.unique(
        _np.asarray(symbols, dtype=_np.int64), return_inverse=True
    )
    ranks = _np.empty(len(symbols) + 1, dtype=_np.int64)
    ranks[:-1] = inverse + 1
    ranks[-1] = 0
    n = len(ranks)
    sa, levels = _doubling_numpy(ranks)

    # Adjacent-suffix LCPs by binary decomposition over the rank tables:
    # level j's ranks agree exactly when 2**j symbols agree (padding
    # never aliases — the sentinel is unique), so greedily extending the
    # match by descending powers of two yields the exact LCP in
    # O(log n) vectorized passes.
    x = sa[:-1]
    y = sa[1:]
    h = _np.zeros(n - 1, dtype=_np.int64)
    for j in range(len(levels) - 1, -1, -1):
        length = 1 << j
        xi = x + h
        yi = y + h
        valid = _np.flatnonzero((xi <= n - length) & (yi <= n - length))
        table = levels[j]
        matched = valid[table[xi[valid]] == table[yi[valid]]]
        h[matched] += length
    lcp = [0] * n
    lcp[1:] = h.tolist()

    intervals = _lcp_interval_bounds(sa.tolist(), lcp)
    if not intervals:
        return sa.tolist(), []
    # Per-interval first occurrence = min(sa[lb..rb]), all at once:
    # reduceat over the flattened (lb, rb+1) boundary pairs reduces each
    # consecutive index pair, so the even slots hold exactly our minima
    # (odd slots reduce the gaps between intervals — discarded).
    padded = _np.empty(n + 1, dtype=_np.int64)
    padded[:n] = sa
    padded[n] = n  # larger than any position, for rb + 1 == n
    bounds = _np.empty(2 * len(intervals), dtype=_np.int64)
    bounds[0::2] = [iv[1] for iv in intervals]
    bounds[1::2] = [iv[2] + 1 for iv in intervals]
    firsts = _np.minimum.reduceat(padded, bounds)[0::2]
    return sa.tolist(), [
        (length, lb, rb, int(first))
        for (length, lb, rb), first in zip(intervals, firsts)
    ]


def _sais(s: list[int], k: int) -> list[int]:
    """Suffix array of ``s`` by SA-IS induced sorting [Nong et al. 2009].

    ``s`` must be over the dense alphabet ``0..k-1`` and end with a
    unique smallest sentinel (``0``).  Linear time, and in CPython the
    constant factor is small: two classification passes, two induced
    sorts, and one recursion on the (at most half-length) LMS string.
    """
    n = len(s)
    if n == 1:
        return [0]

    is_s = [False] * n
    is_s[n - 1] = True
    for i in range(n - 2, -1, -1):
        is_s[i] = s[i] < s[i + 1] or (s[i] == s[i + 1] and is_s[i + 1])
    lms = [i for i in range(1, n) if is_s[i] and not is_s[i - 1]]

    bucket = [0] * k
    for c in s:
        bucket[c] += 1

    def induce(lms_order: list[int]) -> list[int]:
        sa = [-1] * n
        tail = [0] * k
        total = 0
        for c in range(k):
            total += bucket[c]
            tail[c] = total
        for i in reversed(lms_order):
            c = s[i]
            tail[c] -= 1
            sa[tail[c]] = i
        head = [0] * k
        total = 0
        for c in range(k):
            head[c] = total
            total += bucket[c]
        for i in range(n):
            j = sa[i] - 1
            if sa[i] > 0 and not is_s[j]:
                c = s[j]
                sa[head[c]] = j
                head[c] += 1
        total = 0
        for c in range(k):
            total += bucket[c]
            tail[c] = total
        for i in range(n - 1, -1, -1):
            j = sa[i] - 1
            if sa[i] > 0 and is_s[j]:
                c = s[j]
                tail[c] -= 1
                sa[tail[c]] = j
        return sa

    sa = induce(lms)

    # Name LMS substrings in their induced (sorted) order; equal
    # substrings share a name.  An LMS substring runs from its position
    # to the *next* LMS position inclusive (the sentinel stands alone).
    lms_set = set(lms)
    nxt = {a: b for a, b in zip(lms, lms[1:])}
    nxt[lms[-1]] = lms[-1]
    sorted_lms = [p for p in sa if p in lms_set]
    names = {sorted_lms[0]: 0}
    name = 0
    for prev, cur in zip(sorted_lms, sorted_lms[1:]):
        if s[prev : nxt[prev] + 1] != s[cur : nxt[cur] + 1]:
            name += 1
        names[cur] = name
    if name + 1 < len(lms):
        # Duplicate LMS substrings: recurse on the reduced string (the
        # names in text order) to sort the LMS *suffixes* exactly.
        reduced = [names[p] for p in lms]
        sorted_lms = [lms[i] for i in _sais(reduced, name + 1)]
    return induce(sorted_lms)


def _kasai(s: list[int], sa: list[int]) -> list[int]:
    """LCP array by Kasai's algorithm: ``lcp[i]`` is the longest common
    prefix of ``sa[i-1]`` and ``sa[i]`` (``lcp[0] == 0``)."""
    n = len(s)
    rank = [0] * n
    for i, p in enumerate(sa):
        rank[p] = i
    lcp = [0] * n
    h = 0
    for i in range(n):
        r = rank[i]
        if r == 0:
            h = 0
            continue
        j = sa[r - 1]
        while i + h < n and j + h < n and s[i + h] == s[j + h]:
            h += 1
        lcp[r] = h
        if h:
            h -= 1
    return lcp


def _lcp_interval_bounds(sa: list[int], lcp: list[int]) -> list[tuple[int, int, int]]:
    """Every LCP interval with ``lcp >= 1`` as ``(length, lb, rb)`` —
    the same bottom-up stack walk as :func:`_lcp_intervals`, minus the
    min-position carrying (the numpy path batches the minima with one
    ``reduceat`` afterwards, which keeps this loop lean)."""
    n = len(sa)
    out: list[tuple[int, int, int]] = []
    if n < 2:
        return out
    stack_lcp = [0]
    stack_lb = [0]
    report = out.append
    # ``cur`` walks lcp[1..n-1] then a -1 sentinel that drains the stack;
    # the common case (cur equal to the stack top) falls through with a
    # single comparison.
    for i, cur in enumerate(lcp[1:] + [-1], 1):
        top = stack_lcp[-1]
        if top == cur:
            continue
        if top < cur:
            stack_lcp.append(cur)
            stack_lb.append(i - 1)
            continue
        lb = i - 1
        while stack_lcp and stack_lcp[-1] > cur:
            top_lcp = stack_lcp.pop()
            lb = stack_lb.pop()
            if top_lcp >= 1:
                report((top_lcp, lb, i - 1))
        if not stack_lcp or stack_lcp[-1] != cur:
            stack_lcp.append(cur)
            stack_lb.append(lb)
    return out


def _lcp_intervals(sa: list[int], lcp: list[int]) -> list[tuple[int, int, int, int]]:
    """Enumerate every LCP interval with ``lcp >= 1`` bottom-up.

    Returns ``(length, lb, rb, first)`` per interval: the suffixes
    ``sa[lb..rb]`` share a prefix of exactly ``length`` symbols that
    branches to the right — one entry per internal suffix-tree node.
    ``first`` (the minimum of ``sa[lb..rb]``) is carried through the
    stack so the whole enumeration stays O(n), even on an all-equal
    input where naive per-interval min scans would be quadratic.
    """
    n = len(sa)
    out: list[tuple[int, int, int, int]] = []
    if n < 2:
        return out
    # Stack entries: [lcp value, left boundary, min position so far].
    stack = [[0, 0, sa[0]]]
    for i in range(1, n + 1):
        cur = lcp[i] if i < n else -1
        lb = i - 1
        carried: int | None = None
        while stack and stack[-1][0] > cur:
            top_lcp, top_lb, top_min = stack.pop()
            if carried is not None and carried < top_min:
                top_min = carried
            if top_lcp >= 1:
                out.append((top_lcp, top_lb, i - 1, top_min))
            lb = top_lb
            carried = top_min
        if i == n:
            break
        if stack and stack[-1][0] == cur:
            if carried is not None and carried < stack[-1][2]:
                stack[-1][2] = carried
            if sa[i] < stack[-1][2]:
                stack[-1][2] = sa[i]
        else:
            base = carried if carried is not None else sa[i - 1]
            stack.append([cur, lb, min(base, sa[i])])
    return out
