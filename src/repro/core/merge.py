"""Global function merging — the post-outlining size-reduction pass.

Outlining (:mod:`repro.core.outline`) attacks repetition *below* method
granularity; this pass attacks it at whole-function granularity, after
outlining has run — so it sees the outlined thunks themselves, across
PlOpti group boundaries the partition hides from the per-group miner.
Two stages, in the ICF-then-merge layering production LTO uses:

**Stage 1 — identical fold.**  Functions whose code bytes, relocations
(resolved through the fold's own alias map, so transitively-identical
callers fold too), frame info and StackMaps are bit-identical collapse
to one canonical copy.  Unlike the pre-link ICF baseline
(:mod:`repro.baselines.icf`) the folded names are *kept* as linker
aliases: every symbol still resolves — to the canonical body's address
— so callers need no rewriting and the runtime can still enter any
method by name.

**Stage 2 — similar-function merge.**  Functions whose instruction
streams are identical except for ``movz`` immediates (the "parameterize
the differences" move of Meta's optimistic global function merger) are
replaced by one merged body plus a per-member thunk.  The merged body
reads each differing immediate from an intra-procedure scratch register
(``x16``/``x17`` — the AArch64 IP0/IP1, which no calling convention
preserves); the thunk materialises the member's values and jumps::

    member_a:  movz x16, #1234          merged:  ...
               b    merged                       mov  rd, x16   ; was movz rd, #imm
    member_b:  movz x16, #5678                   ...
               b    merged

Safety is static and conservative: a candidate must decode cleanly,
contain no calls (a callee may clobber the scratch registers), never
touch ``x16``/``x17`` itself, carry no embedded data and no StackMaps,
and its relocations must match the group's exactly.  Because the
scratch registers are set once on entry and the body never writes them,
internal control flow (loops, conditional branches) cannot invalidate a
parameter.  Functions that differ only in *relocation targets* merge
via stage 1 once the fold's alias resolution makes the targets equal.

Profitability comes from the extended benefit model
(:func:`repro.core.benefit.evaluate_merge`): ``length * members``
instructions shrink to ``length + members * (params + 1)``, charging
each thunk's parameter loads and jump against the saved bytes.  Hot
functions (HfOpti) are never thunked — the indirection costs a branch
on a hot path — though they still fold (stage 1 adds no indirection).

The pass is deterministic: grouping keys on content, representatives
are first-in-method-order, and the resulting :class:`MergePlan` is a
pure function of the input — which is why it can be content-addressed
(:func:`merge_node_key`) and spliced from the service cache by the
incremental build graph.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace as dc_replace

from repro import observability as obs
from repro.compiler.compiled import CompiledMethod, Relocation, RelocKind
from repro.core import benefit
from repro.core.errors import OutlineError
from repro.isa import decode, instructions as ins

__all__ = [
    "MergePlan",
    "MergeResult",
    "MergeStats",
    "SimilarGroup",
    "merge_functions",
    "merge_node_key",
]

#: Version of the merge plan / node-key derivation.  Bump when the
#: merge algorithm, the plan shape or the key material changes.
#: v2: the key hashes each method's fingerprint (metadata and callees
#: included).
_PLAN_VERSION = 2

#: Intra-procedure scratch registers (AArch64 IP0/IP1) carrying the
#: parameterized immediates from a thunk into the merged body; their
#: count bounds the difference sites one group may parameterize.
_PARAM_REGS = (16, 17)

#: Default symbol prefix of merged bodies (cf. ``MethodOutliner`` for
#: outlined functions).
MERGE_PREFIX = "MergedFunction"


@dataclass
class MergeStats:
    """Bookkeeping for one merge run."""

    #: Methods inspected (post-outlining, including outlined thunks).
    functions_seen: int = 0
    #: Stage 1: identical functions folded away (now linker aliases).
    functions_folded: int = 0
    #: Stage 1: fold groups (each kept one canonical copy).
    fold_groups: int = 0
    #: Stage 2: similar-function groups merged.
    groups_merged: int = 0
    #: Stage 2: members replaced by parameter thunks.
    functions_merged: int = 0
    #: Stage 2: groups that matched shapes but failed the benefit model
    #: (or exceeded the scratch-register budget).
    groups_rejected: int = 0
    #: Model-level bytes saved by both stages (4 bytes/instruction;
    #: the linked ``.text`` delta also reflects alignment padding).
    saved_bytes: int = 0

    def as_dict(self) -> dict[str, int]:
        """The ledger's ``merge`` field (documented in
        ``docs/observability.md``)."""
        return {
            "functions_folded": self.functions_folded,
            "functions_merged": self.functions_merged,
            "groups_merged": self.groups_merged,
            "saved_bytes": self.saved_bytes,
        }


@dataclass(frozen=True)
class SimilarGroup:
    """One stage-2 decision: ``members`` (first = representative) share
    a body shape and differ only at the word indices in ``sites``."""

    merged_name: str
    members: tuple[str, ...]
    sites: tuple[int, ...]


@dataclass(frozen=True)
class MergePlan:
    """The pure decision record of one merge run.

    A plan is a function of the input method list only, so it can be
    cached content-addressed and re-applied (:func:`apply_plan` inside
    :func:`merge_functions`) to reproduce byte-identical output without
    re-running discovery.
    """

    #: Folded name → canonical name (chains already resolved).
    aliases: dict[str, str] = field(default_factory=dict)
    groups: tuple[SimilarGroup, ...] = ()
    version: int = _PLAN_VERSION


@dataclass
class MergeResult:
    """Outcome of :func:`merge_functions`."""

    #: The transformed method list: canonical survivors (in input
    #: order, members replaced by their thunks) plus merged bodies.
    methods: list[CompiledMethod]
    #: Folded name → canonical name, for the linker's alias binding.
    aliases: dict[str, str]
    stats: MergeStats
    plan: MergePlan
    #: Content key of this run (input methods + thresholds); the
    #: incremental graph's merge node and the cache splice key on it.
    node_key: str = ""
    #: ``True`` when the plan came from the cache instead of discovery
    #: (the graph counts this node as reused).
    spliced: bool = False


def merge_node_key(
    methods: list[CompiledMethod],
    *,
    min_saved: int = 1,
    hot_names: frozenset[str] = frozenset(),
    symbol_prefix: str = MERGE_PREFIX,
) -> str:
    """Content key of one merge node: every input that can change the
    plan — the thresholds, the symbol prefix, the sorted hot set, then
    each method's :attr:`~repro.compiler.compiled.CompiledMethod.
    fingerprint` (its code, relocations, metadata, StackMaps, frame
    size and callees), in order."""
    h = hashlib.sha256(repr((
        _PLAN_VERSION, min_saved, len(_PARAM_REGS), symbol_prefix, sorted(hot_names)
    )).encode("utf-8"))
    for method in methods:
        h.update(method.fingerprint)
    return f"merge:{h.hexdigest()}"


# -- stage 1: identical fold ---------------------------------------------------


def _fold_key(method: CompiledMethod, aliases: dict[str, str]) -> tuple:
    """Everything the linked OAT keeps of a method, with relocation
    symbols resolved through the alias map — so two callers of folded
    (hence same-address) callees key identically."""
    relocs = tuple(
        (r.offset, r.kind, _resolve_symbol(r.symbol, aliases), r.addend)
        for r in method.relocations
    )
    stackmaps = (
        tuple(
            (e.native_pc, e.dex_pc, e.live_vregs, e.kind)
            for e in method.stackmaps.entries
        )
        if method.stackmaps is not None
        else None
    )
    is_native = method.metadata.is_native if method.metadata else False
    return (method.code, relocs, method.frame_size, stackmaps, is_native)


def _resolve_symbol(symbol: str, aliases: dict[str, str]) -> str:
    if symbol in aliases:
        return aliases[symbol]
    if symbol.startswith("artmethod:"):
        target = symbol[len("artmethod:"):]
        if target in aliases:
            return f"artmethod:{aliases[target]}"
    return symbol


def _fold_identical(methods: list[CompiledMethod], stats: MergeStats) -> dict[str, str]:
    """Compute the alias map to a fixed point.

    Folding never rewrites survivors — the linker binds each alias to
    the canonical body's address — but resolved-relocation keys let a
    later round fold callers whose only difference was which (now
    same-address) clone they called.
    """
    aliases: dict[str, str] = {}
    alive = list(methods)
    while True:
        groups: dict[tuple, list[CompiledMethod]] = {}
        for method in alive:
            groups.setdefault(_fold_key(method, aliases), []).append(method)
        round_map: dict[str, str] = {}
        for group in groups.values():
            if len(group) < 2:
                continue
            representative = group[0]
            stats.fold_groups += 1
            obs.histogram_observe("merge.group.members", len(group))
            for clone in group[1:]:
                round_map[clone.name] = representative.name
                stats.saved_bytes += clone.size
        if not round_map:
            return aliases
        stats.functions_folded += len(round_map)
        aliases.update(round_map)
        # Flatten chains (a -> b where b folded in an earlier round).
        for name, target in list(aliases.items()):
            while target in aliases:
                target = aliases[target]
            aliases[name] = target
        alive = [m for m in alive if m.name not in round_map]


# -- stage 2: similar-function merge -------------------------------------------


def _register_fields(instr: ins.Instruction) -> tuple[int, ...]:
    return tuple(
        getattr(instr, name)
        for name in ("rd", "rn", "rm", "rt", "rt2", "ra")
        if hasattr(instr, name)
    )


def _similar_shape(method: CompiledMethod, aliases: dict[str, str]):
    """The (shape-key, movz-sites, immediates) triple of one candidate,
    or ``None`` when the function is ineligible for stage 2."""
    meta = method.metadata
    if meta is None or meta.is_native or meta.embedded_data:
        return None
    if method.stackmaps is not None and method.stackmaps.entries:
        return None
    if len(method.code) < 8:
        return None
    masked: list[object] = []
    sites: list[tuple[int, int, bool]] = []  # (word index, rd, sf)
    imms: list[int] = []
    code = method.code
    for index in range(0, len(code), 4):
        word = int.from_bytes(code[index : index + 4], "little")
        try:
            instr = decode(word)
        except Exception:
            return None
        if instr is None or instr.is_call:
            return None
        if any(r in _PARAM_REGS for r in _register_fields(instr)):
            return None
        if isinstance(instr, ins.MoveWide) and instr.op == "movz" and instr.hw == 0:
            masked.append(("movz", instr.rd, instr.sf))
            sites.append((index // 4, instr.rd, instr.sf))
            imms.append(instr.imm16)
        else:
            masked.append(word)
    relocs = tuple(
        (r.offset, r.kind, _resolve_symbol(r.symbol, aliases), r.addend)
        for r in method.relocations
    )
    meta_key = (
        tuple(meta.pc_relative),
        tuple(meta.terminators),
        meta.has_indirect_jump,
        tuple(meta.slowpaths),
    )
    key = (len(code), tuple(masked), relocs, method.frame_size, meta_key)
    return key, tuple(sites), tuple(imms)


def _find_similar(
    methods: list[CompiledMethod],
    aliases: dict[str, str],
    *,
    hot_names: frozenset[str],
    min_saved: int,
    symbol_prefix: str,
    stats: MergeStats,
) -> tuple[SimilarGroup, ...]:
    """Group shape-identical survivors and keep the profitable groups."""
    shapes: dict[tuple, list[tuple[CompiledMethod, tuple, tuple]]] = {}
    for method in methods:
        if method.name in aliases or method.name in hot_names:
            continue
        shaped = _similar_shape(method, aliases)
        if shaped is None:
            continue
        key, sites, imms = shaped
        shapes.setdefault(key, []).append((method, sites, imms))

    groups: list[SimilarGroup] = []
    for members in shapes.values():
        if len(members) < 2:
            continue
        imm_vectors = [imms for _, _, imms in members]
        site_list = members[0][1]
        diff = tuple(
            k for k in range(len(site_list))
            if len({vec[k] for vec in imm_vectors}) > 1
        )
        length = members[0][0].size // 4
        if not diff or len(diff) > len(_PARAM_REGS):
            stats.groups_rejected += 1
            continue
        gain = benefit.evaluate_merge(length, len(members), len(diff))
        if gain < min_saved:
            stats.groups_rejected += 1
            continue
        obs.histogram_observe("merge.group.members", len(members))
        stats.saved_bytes += 4 * gain
        groups.append(
            SimilarGroup(
                merged_name=f"{symbol_prefix}${len(groups)}",
                members=tuple(m.name for m, _, _ in members),
                sites=tuple(site_list[k][0] for k in diff),
            )
        )
    stats.groups_merged = len(groups)
    stats.functions_merged = sum(len(g.members) for g in groups)
    return tuple(groups)


# -- plan application ----------------------------------------------------------


def _movz_at(method: CompiledMethod, word_index: int) -> ins.MoveWide:
    word = int.from_bytes(method.code[word_index * 4 : word_index * 4 + 4], "little")
    instr = decode(word)
    if not (isinstance(instr, ins.MoveWide) and instr.op == "movz" and instr.hw == 0):
        raise OutlineError(
            f"{method.name}+{word_index * 4:#x}: merge site is not a movz"
        )
    return instr


def _merged_body(
    representative: CompiledMethod, group: SimilarGroup
) -> CompiledMethod:
    """The shared body: the representative with each difference site
    rewritten to read its scratch register (``mov rd, x16``/``x17``)."""
    code = bytearray(representative.code)
    for slot, word_index in enumerate(group.sites):
        site = _movz_at(representative, word_index)
        moved = ins.LogicalReg(
            op="orr", rd=site.rd, rn=31, rm=_PARAM_REGS[slot], sf=site.sf
        )
        code[word_index * 4 : word_index * 4 + 4] = moved.encode_bytes()
    metadata = (
        dc_replace(representative.metadata, method_name=group.merged_name)
        if representative.metadata is not None
        else None
    )
    return CompiledMethod(
        name=group.merged_name,
        code=bytes(code),
        relocations=list(representative.relocations),
        metadata=metadata,
        stackmaps=None,
        frame_size=representative.frame_size,
        callees=representative.callees,
    )


def _thunk(member: CompiledMethod, group: SimilarGroup) -> CompiledMethod:
    """``member`` reduced to parameter loads plus a jump to the merged
    body; it keeps the member's name, so callers need no rewriting."""
    from repro.core.metadata import MethodMetadata

    words = bytearray()
    for slot, word_index in enumerate(group.sites):
        site = _movz_at(member, word_index)
        words += ins.MoveWide(
            op="movz", rd=_PARAM_REGS[slot], imm16=site.imm16, hw=0, sf=True
        ).encode_bytes()
    jump_offset = len(words)
    words += ins.B(offset=0).encode_bytes()
    metadata = MethodMetadata(
        method_name=member.name,
        code_size=len(words),
        terminators=[jump_offset],
    )
    return CompiledMethod(
        name=member.name,
        code=bytes(words),
        relocations=[
            Relocation(offset=jump_offset, kind=RelocKind.JUMP26, symbol=group.merged_name)
        ],
        metadata=metadata,
        stackmaps=None,
        frame_size=member.frame_size,
        callees=(group.merged_name,),
    )


def _apply_plan(
    methods: list[CompiledMethod], plan: MergePlan
) -> list[CompiledMethod]:
    by_name = {m.name: m for m in methods}
    thunk_group: dict[str, SimilarGroup] = {}
    for group in plan.groups:
        for member in group.members:
            thunk_group[member] = group
    out: list[CompiledMethod] = []
    for method in methods:
        if method.name in plan.aliases:
            continue
        group = thunk_group.get(method.name)
        out.append(_thunk(method, group) if group is not None else method)
    for group in plan.groups:
        out.append(_merged_body(by_name[group.members[0]], group))
    return out


# -- the pass entry point ------------------------------------------------------


def merge_functions(
    methods: list[CompiledMethod],
    *,
    hot_names: frozenset[str] = frozenset(),
    min_saved: int = 1,
    symbol_prefix: str = MERGE_PREFIX,
    cache=None,
) -> MergeResult:
    """Run both merge stages over a post-outlining method list.

    Deterministic in the input order (representatives are first-in-
    list); never mutates its input.  With ``cache`` (an
    :class:`~repro.service.cache.OutlineCache`), the computed
    :class:`MergePlan` is stored under :func:`merge_node_key` and a
    later run with identical inputs splices it — the incremental build
    graph's merge node.
    """
    stats = MergeStats(functions_seen=len(methods))
    node_key = merge_node_key(
        methods, min_saved=min_saved, hot_names=hot_names, symbol_prefix=symbol_prefix
    )
    plan: MergePlan | None = None
    if cache is not None:
        cached = cache.lookup_object(node_key)
        if isinstance(cached, MergePlan) and cached.version == _PLAN_VERSION:
            plan = cached
    spliced = plan is not None

    if plan is None:
        with obs.span("merge.fold"):
            aliases = _fold_identical(methods, stats)
        with obs.span("merge.similar"):
            groups = _find_similar(
                methods,
                aliases,
                hot_names=hot_names,
                min_saved=min_saved,
                symbol_prefix=symbol_prefix,
                stats=stats,
            )
        plan = MergePlan(aliases=aliases, groups=groups)
        if cache is not None:
            cache.store_object(node_key, plan)
    else:
        # Replay the accounting the discovery pass would have recorded.
        by_name = {m.name: m for m in methods}
        stats.functions_folded = len(plan.aliases)
        stats.fold_groups = len(set(plan.aliases.values()))
        stats.groups_merged = len(plan.groups)
        stats.functions_merged = sum(len(g.members) for g in plan.groups)
        stats.saved_bytes = sum(by_name[n].size for n in plan.aliases)
        for group in plan.groups:
            length = by_name[group.members[0]].size // 4
            stats.saved_bytes += 4 * benefit.evaluate_merge(
                length, len(group.members), len(group.sites)
            )

    merged = _apply_plan(methods, plan)
    obs.counter_add("merge.functions_folded", stats.functions_folded)
    obs.counter_add("merge.functions_merged", stats.functions_merged)
    obs.counter_add("merge.groups_merged", stats.groups_merged)
    obs.counter_add("merge.saved_bytes", stats.saved_bytes)
    if spliced:
        obs.counter_add("merge.plan_spliced")
    return MergeResult(
        methods=merged,
        aliases=dict(plan.aliases),
        stats=stats,
        plan=plan,
        node_key=node_key,
        spliced=spliced,
    )
