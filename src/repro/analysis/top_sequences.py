"""Top repeated-sequence report — the analysis behind Observation 3.

The paper found the three ART patterns by ranking "the repetitive code
sequences with the highest repetition frequency in the Wechat App".
This module reproduces that investigation as a reusable report: rank the
repeats the §2.2 analysis finds, render each as disassembly, and note
which ART pattern (if any) each one is.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.redundancy import symbol_sequence
from repro.compiler.compiled import CompiledMethod
from repro.core.benefit import evaluate
from repro.core.patterns import (
    java_call_pattern,
    runtime_call_pattern,
    stack_check_pattern,
)
from repro.isa import DecodeError, decode
from repro.oat import layout
from repro.suffixtree import SuffixArrayMiner

__all__ = ["SequenceReport", "TopSequence", "top_repeated_sequences"]


def _pattern_index() -> dict[tuple[int, ...], str]:
    """Known ART pattern word-sequences → label."""
    index: dict[tuple[int, ...], str] = {}
    index[tuple(i.encode() for i in java_call_pattern())] = "java_call (Fig. 4a)"
    index[tuple(i.encode() for i in stack_check_pattern())] = "stack_check (Fig. 4c)"
    for name in layout.ENTRYPOINT_OFFSETS:
        index[tuple(i.encode() for i in runtime_call_pattern(name))] = (
            f"runtime_call:{name} (Fig. 4b)"
        )
    return index


@dataclass
class TopSequence:
    """One ranked repeat."""

    rank: int
    length: int
    repeats: int
    saved_instructions: int
    words: tuple[int, ...]
    art_pattern: str | None = None

    def disassembly(self) -> list[str]:
        lines = []
        for word in self.words:
            try:
                lines.append(decode(word).render())
            except DecodeError:
                lines.append(f".word {word:#010x}")
        return lines


@dataclass
class SequenceReport:
    """Ranked repeats for one app (Observation 3 style)."""

    app_name: str
    sequences: list[TopSequence] = field(default_factory=list)

    def art_pattern_ranks(self) -> dict[str, int]:
        """Rank of each ART pattern that made the list."""
        return {
            s.art_pattern: s.rank for s in self.sequences if s.art_pattern
        }


def top_repeated_sequences(
    methods: list[CompiledMethod],
    app_name: str = "",
    *,
    top: int = 10,
    min_length: int = 2,
    max_length: int = 16,
    rank_by: str = "repeats",
) -> SequenceReport:
    """Rank repeated sequences by frequency (``repeats``, the paper's
    Observation-3 ranking) or by benefit-model savings (``saved``)."""
    if rank_by not in ("repeats", "saved"):
        raise ValueError("rank_by must be 'repeats' or 'saved'")
    symbols = symbol_sequence(methods)
    miner = SuffixArrayMiner(symbols)
    repeats = miner.repeats(min_length=min_length, min_count=2, max_length=max_length)
    if rank_by == "repeats":
        repeats.sort(key=lambda r: (-r.count, -r.length, r.first))
    else:
        repeats.sort(key=lambda r: (-evaluate(r.length, r.count), -r.length, r.first))

    patterns = _pattern_index()
    report = SequenceReport(app_name=app_name)
    seen_words: set[tuple[int, ...]] = set()
    for repeat in repeats:
        words = tuple(symbols[repeat.first : repeat.first + repeat.length])
        # Skip sub-sequences of an already ranked longer repeat so the
        # list shows distinct shapes (the paper's per-pattern view).
        if any(w in seen_words for w in (words,)):
            continue
        seen_words.add(words)
        report.sequences.append(
            TopSequence(
                rank=len(report.sequences) + 1,
                length=repeat.length,
                repeats=repeat.count,
                saved_instructions=max(0, evaluate(repeat.length, repeat.count)),
                words=words,
                art_pattern=patterns.get(words),
            )
        )
        if len(report.sequences) >= top:
            break
    return report
