"""Miner shoot-out: the SA-IS suffix array vs. the Ukkonen suffix tree.

LTBO.2 mines with the suffix array (:class:`~repro.suffixtree.
SuffixArrayMiner`); the paper's Ukkonen tree stays as the reference.
This benchmark is the evidence for that choice: it runs both indexes
over the same Table-6-style workload — the real candidate symbol
sequences of the six apps, mined with the production thresholds — and
holds the suffix array to at least 2x faster end to end (index
construction + repeat enumeration + occurrence resolution for every
repeat).  The reference arm is ``SuffixTree`` + ``enumerate_repeats``
+ ``tree.occurrences``.

Wall-clock only; the *outputs* being identical is asserted here too,
and exhaustively in ``tests/properties/test_miner_equivalence.py``.
"""

from __future__ import annotations

import time

from repro.compiler.driver import dex2oat
from repro.core.candidates import select_candidates
from repro.core.detect import map_group
from repro.core.outline import DEFAULT_MAX_LENGTH, DEFAULT_MIN_LENGTH
from repro.reporting import format_table
from repro.suffixtree import SuffixArrayMiner
from repro.suffixtree.repeats import enumerate_repeats
from repro.suffixtree.ukkonen import SuffixTree
from repro.workloads import APP_NAMES, app_spec, generate_app

from _bench_util import BENCH_SCALE, emit

#: Mining cost needs enough symbols to show (same reasoning as the
#: build-time table's dedicated scale).
_MINE_SCALE = max(1.0, BENCH_SCALE)


def _workloads() -> list[tuple[str, list[int]]]:
    """(app name, candidate symbol sequence) for every paper app."""
    out = []
    for name in APP_NAMES:
        dexfile = generate_app(app_spec(name, _MINE_SCALE)).dexfile
        result = dex2oat(dexfile, cto=True)
        candidates = select_candidates(list(result.methods)).candidates
        out.append((name, map_group(candidates).symbols))
    return out


def _mine_tree(symbols: list[int]):
    tree = SuffixTree(symbols)
    repeats = enumerate_repeats(
        tree, min_length=DEFAULT_MIN_LENGTH, min_count=2, max_length=DEFAULT_MAX_LENGTH
    )
    for repeat in repeats:
        tree.occurrences(repeat.node)
    return repeats


def _mine_array(symbols: list[int]):
    miner = SuffixArrayMiner(symbols)
    repeats = miner.repeats(
        min_length=DEFAULT_MIN_LENGTH, min_count=2, max_length=DEFAULT_MAX_LENGTH
    )
    for repeat in repeats:
        miner.occurrences(repeat)
    return repeats


_ARMS = {"suffixtree": _mine_tree, "suffixarray": _mine_array}


def _mine(engine: str, symbols: list[int]) -> tuple[float, list[tuple[int, int, int]]]:
    """(seconds, (length, count, first) triples) for one full mining
    pass: index construction, enumeration, and occurrence resolution."""
    start = time.perf_counter()
    repeats = _ARMS[engine](symbols)
    seconds = time.perf_counter() - start
    return seconds, [(r.length, r.count, r.first) for r in repeats]


def test_engine_mining_speedup(benchmark):
    workloads = _workloads()

    def measure():
        rows = []
        total = {"suffixtree": 0.0, "suffixarray": 0.0}
        for name, symbols in workloads:
            times = {}
            triples = {}
            for engine in ("suffixtree", "suffixarray"):
                # Best of two runs damps single-core container noise.
                samples = []
                for _ in range(2):
                    seconds, triples[engine] = _mine(engine, symbols)
                    samples.append(seconds)
                times[engine] = min(samples)
                total[engine] += times[engine]
            assert triples["suffixtree"] == triples["suffixarray"], name
            rows.append((
                name,
                len(symbols),
                len(triples["suffixtree"]),
                f"{times['suffixtree'] * 1000:.1f}",
                f"{times['suffixarray'] * 1000:.1f}",
                f"{times['suffixtree'] / times['suffixarray']:.2f}x",
            ))
        rows.append((
            "total", "", "",
            f"{total['suffixtree'] * 1000:.1f}",
            f"{total['suffixarray'] * 1000:.1f}",
            f"{total['suffixtree'] / total['suffixarray']:.2f}x",
        ))
        return rows, total

    rows, total = benchmark.pedantic(measure, rounds=1, iterations=1)
    emit(
        "engine_mining",
        format_table(
            ["app", "symbols", "repeats", "suffixtree ms", "suffixarray ms", "speedup"],
            rows,
            title=f"Engine mining time (scale {_MINE_SCALE})",
        ),
    )
    speedup = total["suffixtree"] / total["suffixarray"]
    assert speedup >= 2.0, f"suffix array only {speedup:.2f}x faster than Ukkonen"
