"""Miner equivalence: the suffix-array miner against the paper's Ukkonen
tree and the brute-force oracle, and whole builds byte-identical
whichever of the two indexes mines them.

The suffix array replaced the suffix tree on one claim: its LCP
intervals are the tree's internal nodes, so every consumer sees the
same ``(length, count, first)`` triples in the same canonical order,
and the benefit-greedy outliner therefore emits the same OAT bytes.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CalibroConfig, build_app
from repro.suffixtree import SuffixArrayMiner
from repro.suffixtree.repeats import brute_force_repeats, enumerate_repeats
from repro.suffixtree.ukkonen import SuffixTree

_SEQ = st.lists(st.integers(0, 6), min_size=1, max_size=48)


class UkkonenMiner:
    """The paper's suffix tree behind the miner's interface — the
    reference a build can be mined with in place of the suffix array."""

    def __init__(self, sequence):
        self.tree = SuffixTree(sequence)
        self.node_count = self.tree.node_count

    def repeats(self, *, min_length=2, min_count=2, max_length=None):
        return enumerate_repeats(
            self.tree, min_length=min_length, min_count=min_count, max_length=max_length
        )

    def occurrences(self, repeat):
        return self.tree.occurrences(repeat.node)


def _triples(repeats):
    return [(r.length, r.count, r.first) for r in repeats]


def _assert_miners_match_oracle(seq, *, min_length=1, min_count=2, max_length=None):
    kwargs = dict(min_length=min_length, min_count=min_count, max_length=max_length)
    tree = SuffixTree(seq)
    array = SuffixArrayMiner(seq)
    tree_reps = enumerate_repeats(tree, **kwargs)
    array_reps = array.repeats(**kwargs)
    assert _triples(tree_reps) == _triples(array_reps)
    assert _triples(tree_reps) == _triples(brute_force_repeats(seq, **kwargs))
    for a, b in zip(tree_reps, array_reps):
        assert a.positions(tree) == b.positions(array)


@given(seq=_SEQ)
@settings(max_examples=150)
def test_random_sequences(seq):
    _assert_miners_match_oracle(seq)


@given(seq=_SEQ, min_length=st.integers(1, 4), max_length=st.integers(2, 10))
@settings(max_examples=100)
def test_threshold_combinations(seq, min_length, max_length):
    _assert_miners_match_oracle(
        seq, min_length=min_length, max_length=max(min_length, max_length)
    )


def test_all_equal_adversarial():
    # One giant LCP interval chain: the worst case for interval
    # enumeration and for naive occurrence counting alike.
    _assert_miners_match_oracle([7] * 120)


def test_fibonacci_word_adversarial():
    # Fibonacci words maximize distinct repeated substrings per symbol —
    # the classic suffix-structure stress input.
    a, b = [0], [0, 1]
    while len(b) < 150:
        a, b = b, b + a
    _assert_miners_match_oracle(b[:150])


def test_unique_separators_never_repeat():
    # The §3.3.2 separator device: unique negative symbols must not take
    # part in any repeat, in the miner or in the reference tree.
    seq = [4, 4, -2, 4, 4, -3, 4, 4]
    for repeats in (
        SuffixArrayMiner(seq).repeats(min_length=1, min_count=2),
        enumerate_repeats(SuffixTree(seq), min_length=1, min_count=2),
    ):
        for rep in repeats:
            assert all(s >= 0 for s in seq[rep.first : rep.first + rep.length])


def test_builds_are_byte_identical_across_engines(small_app, monkeypatch):
    """The acceptance bar: same OAT bytes under every configuration
    whether the suffix array or the Ukkonen tree mines the groups
    (``jobs=1`` keeps the PlOpti groups in this process, where the
    reference is patched in)."""
    dexfile = small_app.dexfile
    hot = {name: 1000 + 17 * i for i, name in enumerate(sorted(dexfile.method_names()))}
    configs = [
        CalibroConfig.baseline(),
        CalibroConfig.cto_ltbo(),
        CalibroConfig.cto_ltbo_plopti(groups=4, jobs=1),
        CalibroConfig.full(hot, groups=4, jobs=1),
    ]
    array_images = [build_app(dexfile, config).oat.to_bytes() for config in configs]
    trees: list[UkkonenMiner] = []

    def reference(sequence):
        trees.append(UkkonenMiner(sequence))
        return trees[-1]

    monkeypatch.setattr("repro.core.outline.SuffixArrayMiner", reference)
    for config, array_image in zip(configs, array_images):
        tree_build = build_app(dexfile, config)
        assert tree_build.oat.to_bytes() == array_image, config.name
    assert len(trees) == 1 + 4 + 4  # the LTBO configs' groups, all by the tree
