"""LTBO.2 step 3 — outlining the binary code (paper §3.3.3).

Given one group of candidate methods (the whole candidate set in the
single-tree configuration; one PlOpti partition otherwise):

1. map methods to symbol sequences (:mod:`repro.core.detect`);
2. index the sequence with the repeat miner (a suffix array whose LCP
   intervals are the paper's suffix-tree internal nodes — see
   :mod:`repro.suffixtree.miners`) and enumerate repeats;
3. greedily claim occurrences in descending benefit-model order —
   "based on ... the benefit model, we can also choose the sequence with
   larger benefit among multiple overlapping ones to outline";
4. materialise each accepted repeat as an outlined function (the
   reserved copy "plus an extra instruction jumping to the return
   address" — ``br x30``), replace every claimed occurrence with ``bl``
   carrying a relocation to the new symbol, and
5. patch PC-relative instructions and carry the metadata/StackMaps
   through the rewrite (:mod:`repro.core.patch`).

The claimed-position array enforces the non-overlap invariant globally:
a word is outlined at most once, across *all* repeats of the group.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

from repro import observability as obs
from repro.compiler.compiled import CompiledMethod, Relocation, RelocKind
from repro.core import benefit
from repro.core.detect import GroupSequence, map_group
from repro.core.errors import OutlineError
from repro.core.metadata import MethodMetadata
from repro.core.patch import patch_pc_relative
from repro.isa import instructions as ins
from repro.isa import registers as regs
from repro.suffixtree import SuffixArrayMiner

__all__ = ["GroupOutlineResult", "OutlineStats", "OutlinedFunction", "outline_group"]

#: Default thresholds: sequences of at least 2 instructions, saving at
#: least 1 instruction net, capped at 64 instructions (longer repeats
#: exist but contribute negligibly and slow the search).
DEFAULT_MIN_LENGTH = 2
DEFAULT_MAX_LENGTH = 64
DEFAULT_MIN_SAVED = 1


@dataclass
class OutlinedFunction:
    """One newly created outlined function."""

    name: str
    words: tuple[int, ...]
    #: ``(method_index, byte_offset)`` of every replaced occurrence.
    occurrences: list[tuple[int, int]] = field(default_factory=list)

    @property
    def length(self) -> int:
        return len(self.words)

    def compiled(self) -> CompiledMethod:
        body = b"".join(w.to_bytes(4, "little") for w in self.words)
        body += ins.Br(rn=regs.LR).encode_bytes()
        metadata = MethodMetadata(
            method_name=self.name,
            code_size=len(body),
            terminators=[len(body) - 4],
            # ``br`` marks it; also prevents re-outlining in later passes.
            has_indirect_jump=True,
        )
        return CompiledMethod(name=self.name, code=body, metadata=metadata)


@dataclass
class OutlineStats:
    """Bookkeeping for one group's outlining run."""

    candidate_methods: int = 0
    sequence_symbols: int = 0
    tree_nodes: int = 0
    repeats_enumerated: int = 0
    repeats_outlined: int = 0
    #: Enumerated repeats the benefit model turned down — either outright
    #: (estimate below ``min_saved``) or after the greedy claim left too
    #: few non-overlapping occurrences.
    repeats_rejected: int = 0
    occurrences_replaced: int = 0
    instructions_saved: int = 0
    bytes_before: int = 0
    bytes_after: int = 0
    build_seconds: float = 0.0
    search_seconds: float = 0.0
    rewrite_seconds: float = 0.0

    @property
    def bytes_saved(self) -> int:
        return self.bytes_before - self.bytes_after


@dataclass
class GroupOutlineResult:
    """Rewritten methods (by original index) and new outlined functions.

    ``decisions`` keeps the pre-rendering view of each outlined function
    (its word sequence and the claimed occurrence sites), which the
    analysis/benchmark layers use to cross-check the benefit model.
    """

    rewritten: dict[int, CompiledMethod]
    outlined: list[CompiledMethod]
    stats: OutlineStats
    decisions: list[OutlinedFunction] = field(default_factory=list)


def outline_group(
    candidates: list[tuple[int, CompiledMethod]],
    *,
    hot_names: frozenset[str] = frozenset(),
    min_length: int = DEFAULT_MIN_LENGTH,
    max_length: int = DEFAULT_MAX_LENGTH,
    min_saved: int = DEFAULT_MIN_SAVED,
    symbol_prefix: str = "MethodOutliner",
) -> GroupOutlineResult:
    """Outline one group of candidate methods."""
    stats = OutlineStats(candidate_methods=len(candidates))
    stats.bytes_before = sum(m.size for _, m in candidates)
    if not candidates:
        return GroupOutlineResult(rewritten={}, outlined=[], stats=stats, decisions=[])

    t0 = time.perf_counter()
    group = map_group(candidates, hot_names)
    miner = SuffixArrayMiner(group.symbols)
    stats.sequence_symbols = len(group.symbols)
    stats.tree_nodes = miner.node_count
    stats.build_seconds = time.perf_counter() - t0

    t1 = time.perf_counter()
    decisions = _select(miner, group, min_length, max_length, min_saved, symbol_prefix, stats)
    stats.search_seconds = time.perf_counter() - t1

    t2 = time.perf_counter()
    by_method: dict[int, list[tuple[int, int, str]]] = {}
    for decision in decisions:
        for method_index, offset in decision.occurrences:
            by_method.setdefault(method_index, []).append(
                (offset, 4 * decision.length, decision.name)
            )

    rewritten: dict[int, CompiledMethod] = {}
    method_by_index = dict(candidates)
    for method_index, occs in by_method.items():
        rewritten[method_index] = _rewrite(method_by_index[method_index], sorted(occs))

    outlined = [d.compiled() for d in decisions]
    stats.rewrite_seconds = time.perf_counter() - t2
    stats.repeats_outlined = len(decisions)
    stats.occurrences_replaced = sum(len(d.occurrences) for d in decisions)
    new_sizes = {
        index: rewritten.get(index, method).size for index, method in candidates
    }
    stats.bytes_after = sum(new_sizes.values()) + sum(f.size for f in outlined)
    stats.instructions_saved = (stats.bytes_before - stats.bytes_after) // 4
    return GroupOutlineResult(
        rewritten=rewritten, outlined=outlined, stats=stats, decisions=decisions
    )


def _select(
    miner: SuffixArrayMiner,
    group: GroupSequence,
    min_length: int,
    max_length: int,
    min_saved: int,
    symbol_prefix: str,
    stats: OutlineStats,
) -> list[OutlinedFunction]:
    repeats = miner.repeats(min_length=min_length, min_count=2, max_length=max_length)
    stats.repeats_enumerated = len(repeats)
    # Greedy in descending estimated benefit; the estimate (using the raw
    # occurrence count) upper-bounds the realised benefit, so once the
    # estimate drops below the threshold nothing later can qualify.
    # The final tie-break is the first occurrence position — unlike an
    # index-internal node id it is the same in the suffix array as in
    # the paper's suffix tree, so the claim order (and the output
    # bytes) do not depend on the index.
    repeats.sort(key=lambda r: (-benefit.evaluate(r.length, r.count), -r.length, r.first))
    claimed = bytearray(len(group.symbols))
    decisions: list[OutlinedFunction] = []
    symbols = group.symbols
    for repeat_rank, repeat in enumerate(repeats):
        length = repeat.length
        if benefit.evaluate(length, repeat.count) < min_saved:
            # Estimates only decrease from here (sorted order): every
            # remaining repeat is rejected by the benefit model too.
            stats.repeats_rejected += len(repeats) - repeat_rank
            break
        positions = repeat.positions(miner)
        chosen: list[int] = []
        last_end = -1
        for pos in positions:
            if pos < last_end:
                continue
            span = claimed[pos : pos + length]
            if any(span):
                continue
            chosen.append(pos)
            last_end = pos + length
        if len(chosen) < 2 or benefit.evaluate(length, len(chosen)) < min_saved:
            stats.repeats_rejected += 1
            continue
        for pos in chosen:
            for k in range(pos, pos + length):
                claimed[k] = 1
        obs.histogram_observe(
            "ltbo.repeat.benefit", benefit.evaluate(length, len(chosen))
        )
        words = tuple(symbols[chosen[0] : chosen[0] + length])
        name = f"{symbol_prefix}${len(decisions)}"
        decisions.append(
            OutlinedFunction(
                name=name,
                words=words,
                occurrences=[group.locate(pos) for pos in chosen],
            )
        )
    return decisions


def _rewrite(method: CompiledMethod, occurrences: list[tuple[int, int, str]]) -> CompiledMethod:
    """Replace each occurrence with ``bl`` and rebuild all side tables."""
    assert method.metadata is not None
    old = method.code
    new = bytearray()
    offset_map: dict[int, int] = {}
    new_relocs: list[Relocation] = []
    callees = list(method.callees)
    cursor = 0
    bl_placeholder = ins.Bl(offset=0).encode_bytes()
    for start, size, symbol in occurrences:
        if start < cursor:
            raise OutlineError(f"{method.name}: overlapping outline occurrences")
        for off in range(cursor, start, 4):
            offset_map[off] = len(new)
            new += old[off : off + 4]
        bl_offset = len(new)
        offset_map[start] = bl_offset
        # Interior offsets collapse to the point just after the call —
        # extent *ends* that coincide with an occurrence end then remap
        # correctly (nothing else ever points into the interior).
        for off in range(start + 4, start + size, 4):
            offset_map[off] = bl_offset + 4
        new += bl_placeholder
        new_relocs.append(Relocation(offset=bl_offset, kind=RelocKind.CALL26, symbol=symbol))
        if symbol not in callees:
            callees.append(symbol)
        cursor = start + size
    for off in range(cursor, len(old), 4):
        offset_map[off] = len(new)
        new += old[off : off + 4]
    offset_map[len(old)] = len(new)

    relocations = [replace(r, offset=offset_map[r.offset]) for r in method.relocations]
    relocations.extend(new_relocs)
    relocations.sort(key=lambda r: r.offset)

    patch_pc_relative(new, method.metadata, offset_map)
    metadata = method.metadata.remapped(offset_map, len(new))
    stackmaps = method.stackmaps.remapped(offset_map) if method.stackmaps else None
    return CompiledMethod(
        name=method.name,
        code=bytes(new),
        relocations=relocations,
        metadata=metadata,
        stackmaps=stackmaps,
        frame_size=method.frame_size,
        callees=tuple(callees),
    )
