"""The RepeatMiner protocol and its two engines.

Engine equivalence at build scale lives in
``tests/properties/test_miner_equivalence.py``; this file covers the
protocol surface, the SA-IS construction itself, the canonical ordering
contract, and the deprecation shim.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import ConfigError
from repro.suffixtree import (
    DEFAULT_ENGINE,
    ENGINES,
    RepeatMiner,
    SuffixArrayMiner,
    SuffixTreeMiner,
    get_miner,
)
from repro.suffixtree.miners import _kasai, _lcp_intervals, _sais

_SEQ = st.lists(st.integers(0, 5), min_size=1, max_size=40)


class TestRegistry:
    def test_both_engines_registered(self):
        assert set(ENGINES) == {"suffixtree", "suffixarray"}
        assert DEFAULT_ENGINE == "suffixtree"

    def test_get_miner_resolves(self):
        assert get_miner("suffixtree") is SuffixTreeMiner
        assert get_miner("suffixarray") is SuffixArrayMiner

    def test_get_miner_unknown_is_a_config_error(self):
        with pytest.raises(ConfigError, match="unknown engine 'fmindex'"):
            get_miner("fmindex")

    def test_instances_satisfy_the_protocol(self):
        seq = [1, 2, 1, 2, 3]
        for cls in ENGINES.values():
            miner = cls(seq)
            assert isinstance(miner, RepeatMiner)
            assert miner.name == {SuffixTreeMiner: "suffixtree",
                                  SuffixArrayMiner: "suffixarray"}[cls]
            assert miner.sequence_length == len(seq)
            assert miner.node_count > 0


class TestSuffixArrayConstruction:
    @given(seq=_SEQ)
    @settings(max_examples=200)
    def test_sais_matches_naive_sort(self, seq):
        order = {sym: rank for rank, sym in enumerate(sorted(set(seq)), 1)}
        ranks = [order[sym] for sym in seq] + [0]
        naive = sorted(range(len(ranks)), key=lambda i: ranks[i:])
        assert _sais(ranks, len(order) + 1) == naive

    @given(seq=_SEQ)
    @settings(max_examples=100)
    def test_kasai_matches_direct_comparison(self, seq):
        order = {sym: rank for rank, sym in enumerate(sorted(set(seq)), 1)}
        ranks = [order[sym] for sym in seq] + [0]
        sa = _sais(ranks, len(order) + 1)
        lcp = _kasai(ranks, sa)
        assert lcp[0] == 0
        for i in range(1, len(sa)):
            a, b = ranks[sa[i - 1] :], ranks[sa[i] :]
            h = 0
            while h < min(len(a), len(b)) and a[h] == b[h]:
                h += 1
            assert lcp[i] == h

    @given(seq=st.lists(st.integers(-3, 5), min_size=64, max_size=160))
    @settings(max_examples=100)
    def test_numpy_index_matches_pure_reference(self, seq):
        # The accelerated path (prefix doubling + rank-table LCPs +
        # reduceat minima) must reproduce the pure SA-IS/Kasai index
        # exactly.  Sizes >= 64 force the numpy path when available.
        pytest.importorskip("numpy")
        from repro.suffixtree.miners import _build_index

        order = {sym: rank for rank, sym in enumerate(sorted(set(seq)), 1)}
        ranks = [order[sym] for sym in seq] + [0]
        sa = _sais(ranks, len(order) + 1)
        intervals = _lcp_intervals(sa, _kasai(ranks, sa))
        fast_sa, fast_intervals = _build_index(seq)
        assert fast_sa == sa
        assert sorted(fast_intervals) == sorted(intervals)

    def test_all_equal_input_is_not_quadratic_in_output(self):
        # [3]*n has n-1 branching repeats (lengths 1..n-1); the O(n)
        # min-position carrying must report first == 0 for each.
        miner = SuffixArrayMiner([3] * 50)
        reps = miner.repeats(min_length=1, min_count=2)
        assert [(r.length, r.count, r.first) for r in reps] == [
            (length, 50 - length + 1, 0) for length in range(1, 50)
        ]


class TestOrderingContract:
    @given(seq=_SEQ)
    @settings(max_examples=100)
    def test_both_engines_sort_ascending_length_first(self, seq):
        for cls in ENGINES.values():
            reps = cls(seq).repeats(min_length=1, min_count=2)
            keys = [(r.length, r.first) for r in reps]
            assert keys == sorted(keys)
            assert len(set(keys)) == len(keys)  # (length, first) is unique

    @given(seq=_SEQ)
    @settings(max_examples=100)
    def test_occurrences_sorted_and_real(self, seq):
        for cls in ENGINES.values():
            miner = cls(seq)
            for rep in miner.repeats(min_length=1, min_count=2):
                pos = miner.occurrences(rep)
                assert pos == sorted(pos) and len(pos) == rep.count
                assert pos[0] == rep.first
                want = seq[rep.first : rep.first + rep.length]
                for p in pos:
                    assert seq[p : p + rep.length] == want


class TestDeprecationShim:
    def test_unknown_attribute_still_raises(self):
        import repro.suffixtree as pkg

        # The pre-protocol package-level names are gone; their home
        # submodules (ukkonen, repeats) are the only way in.
        for name in ("NotAThing", "SuffixTree", "TERMINAL", "enumerate_repeats"):
            with pytest.raises(AttributeError):
                getattr(pkg, name)
