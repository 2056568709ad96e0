"""Code-redundancy analysis of OAT binary code (paper Section 2.2).

The four-step analysis behind Table 1 and Figure 3:

1. map the binary code to a sequence of unsigned integers (here: the raw
   32-bit words, which is exactly the paper's "instruction hashing");
2. index it — the paper builds a suffix tree; the repeat miner's LCP
   intervals are exactly that tree's internal nodes;
3. enumerate repetitive sequences (internal nodes with >= 2 leaves);
4. estimate the size savings with the Fig. 2 benefit model, claiming
   non-overlapping occurrences greedily in descending-benefit order.

The estimator confines repeats within basic blocks (terminators map to
separators — the detection scheme of §3.3.2, justified by Observation 2:
"most repeating sequences are typically confined within a basic block")
and skips embedded data, but ignores the *link-time safety* constraints
LTBO must additionally respect (call/LR/SP hazards, relocations).  It
therefore measures *potential*, which is why the paper's estimate
(25.4%) exceeds the realised reduction (19.19%); the same ordering
reproduces here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.compiler.compiled import CompiledMethod
from repro.core.benefit import evaluate
from repro.suffixtree import SuffixArrayMiner

__all__ = ["RedundancyReport", "estimate_redundancy", "length_census", "symbol_sequence"]


@dataclass
class RedundancyReport:
    """Result of the Section 2.2 analysis for one application."""

    app_name: str
    total_instructions: int
    instructions_saved: int
    #: ``(length, claimed_repeats)`` per accepted repeat.
    claimed: list[tuple[int, int]] = field(default_factory=list)
    #: All repeats seen (length, raw occurrence count) — Figure 3's scatter.
    census: list[tuple[int, int]] = field(default_factory=list)

    @property
    def estimated_ratio(self) -> float:
        if not self.total_instructions:
            return 0.0
        return self.instructions_saved / self.total_instructions

    def census_by_length(self) -> dict[int, int]:
        """Total number of repeat occurrences per sequence length
        (the y-axis aggregation of Figure 3)."""
        out: dict[int, int] = {}
        for length, count in self.census:
            out[length] = out.get(length, 0) + count
        return dict(sorted(out.items()))


def symbol_sequence(methods: list[CompiledMethod]) -> list[int]:
    """The estimator's symbol sequence (step 1): each code word as its
    raw 32-bit value, with terminators, embedded data and method
    boundaries mapped to unique (negative) separators."""
    symbols: list[int] = []
    for method in methods:
        meta = method.metadata
        terminators = set(meta.terminators) if meta else set()
        for i in range(0, len(method.code), 4):
            if i in terminators or (meta is not None and meta.in_embedded_data(i)):
                symbols.append(-2 - len(symbols))  # unique separator
            else:
                symbols.append(int.from_bytes(method.code[i : i + 4], "little"))
        # A method boundary also separates: a "repeat" spanning two
        # unrelated methods is not a real outlining target.
        symbols.append(-2 - len(symbols))
    return symbols


def estimate_redundancy(
    methods: list[CompiledMethod],
    app_name: str = "",
    *,
    min_length: int = 2,
    max_length: int = 64,
) -> RedundancyReport:
    """Run the §2.2 estimator over compiled (pre-link) method code."""
    symbols = symbol_sequence(methods)
    miner = SuffixArrayMiner(symbols)
    repeats = miner.repeats(min_length=min_length, min_count=2, max_length=max_length)
    repeats.sort(key=lambda r: (-evaluate(r.length, r.count), -r.length, r.first))

    claimed_positions = bytearray(len(symbols))
    claimed: list[tuple[int, int]] = []
    census: list[tuple[int, int]] = []
    saved = 0
    for repeat in repeats:
        census.append((repeat.length, repeat.count))
        if evaluate(repeat.length, repeat.count) < 1:
            continue
        positions = repeat.positions(miner)
        chosen = 0
        last_end = -1
        starts: list[int] = []
        for pos in positions:
            if pos < last_end or any(claimed_positions[pos : pos + repeat.length]):
                continue
            starts.append(pos)
            last_end = pos + repeat.length
            chosen += 1
        benefit = evaluate(repeat.length, chosen)
        if chosen < 2 or benefit < 1:
            continue
        for pos in starts:
            for k in range(pos, pos + repeat.length):
                claimed_positions[k] = 1
        claimed.append((repeat.length, chosen))
        saved += benefit

    total = sum(len(m.code) // 4 for m in methods)
    return RedundancyReport(
        app_name=app_name,
        total_instructions=total,
        instructions_saved=saved,
        claimed=claimed,
        census=census,
    )


def length_census(report: RedundancyReport, buckets: list[int] | None = None) -> dict[str, int]:
    """Bucketed Figure 3 view: sequence-length ranges → total repeats."""
    buckets = buckets or [2, 4, 8, 16, 32, 64]
    out = {f"<{buckets[0]}": 0}
    labels = []
    for lo, hi in zip(buckets, buckets[1:] + [None]):
        label = f"{lo}-{hi - 1}" if hi else f">={lo}"
        labels.append((label, lo, hi))
        out[label] = 0
    for length, count in report.census:
        if length < buckets[0]:
            out[f"<{buckets[0]}"] += count
            continue
        for label, lo, hi in labels:
            if length >= lo and (hi is None or length < hi):
                out[label] += count
                break
    return out
