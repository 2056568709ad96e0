"""LTBO.2 step 2 — repetitive code sequence detection (paper §3.3.2).

Each candidate method's code is mapped to a symbol sequence: the raw
32-bit encoding of every outlinable instruction, and a *unique* separator
symbol (a fresh negative integer per occurrence) for everything a
repeated sequence must not contain.  Unique separators realise the
paper's rule that "the separator number terminates a sequence, thus
confining each repetitive code sequence within a basic block": since a
separator occurs exactly once in the whole corpus, no repeated substring
can span one.

Separator classes (the paper's terminator rule plus the strictly-safe
refinements documented in DESIGN.md §6):

* words inside **embedded data** extents (from the LTBO.1 metadata);
* **terminators** — branches, ``ret``, ``br`` (metadata, cross-checked
  with decoding);
* **calls** — ``bl``/``blr`` clobber the return path of the outlined
  function;
* **PC-relative producers** — ``adr``/``adrp``/``ldr literal`` and all
  PC-relative branches: one shared copy cannot encode
  occurrence-specific displacements;
* instructions that **read or write x30** — the outlined function's
  return address lives there;
* instructions that **write sp** — the caller frame must be untouched;
* when a hot-method mask is active (HfOpti), every offset outside a
  slowpath extent.

Decoding here is *not* the blind disassembly the paper warns about: the
metadata pins down the data extents, and every remaining word is by
construction an instruction the compiler emitted.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Iterator

from repro.compiler.compiled import CompiledMethod
from repro.core.errors import OutlineError
from repro.core.metadata import MethodMetadata
from repro.isa import DecodeError, decode
from repro.isa import instructions as ins
from repro.isa import registers as regs

__all__ = ["GroupSequence", "MethodSpan", "SymbolMapper", "map_group", "touches_lr", "writes_sp"]


def touches_lr(instr: ins.Instruction) -> bool:
    """True when the instruction reads or writes ``x30``."""
    lr = regs.LR
    if isinstance(instr, ins.MoveWide):
        return instr.rd == lr
    if isinstance(instr, (ins.AddSubImm,)):
        return instr.rd == lr or instr.rn == lr
    if isinstance(instr, (ins.AddSubReg, ins.LogicalReg)):
        return lr in (instr.rd, instr.rn, instr.rm)
    if isinstance(instr, ins.MAdd):
        return lr in (instr.rd, instr.rn, instr.rm, instr.ra)
    if isinstance(instr, (ins.SDiv, ins.ShiftVar)):
        return lr in (instr.rd, instr.rn, instr.rm)
    if isinstance(instr, ins.CSel):
        return lr in (instr.rd, instr.rn, instr.rm)
    if isinstance(instr, ins.LoadStoreImm):
        return instr.rt == lr or instr.rn == lr
    if isinstance(instr, ins.LoadStorePair):
        return lr in (instr.rt, instr.rt2, instr.rn)
    if isinstance(instr, (ins.LoadLiteral,)):
        return instr.rt == lr
    if isinstance(instr, (ins.Adr, ins.Adrp)):
        return instr.rd == lr
    if isinstance(instr, (ins.Br, ins.Blr, ins.Ret)):
        return instr.rn == lr
    return False


def writes_sp(instr: ins.Instruction) -> bool:
    """True when the instruction modifies the stack pointer."""
    if isinstance(instr, ins.AddSubImm):
        return instr.rd == 31 and not instr.set_flags
    if isinstance(instr, ins.LoadStorePair):
        return instr.mode in ("pre", "post") and instr.rn == 31
    return False


@dataclass
class MethodSpan:
    """Where one method's words landed in the group symbol sequence."""

    method_index: int
    start: int  # position in the group sequence
    words: int  # number of words (== number of symbols)


@dataclass
class GroupSequence:
    """The concatenated symbol sequence for one group of methods."""

    symbols: list[int] = field(default_factory=list)
    spans: list[MethodSpan] = field(default_factory=list)
    #: Per-position outlinability (True = real instruction symbol).
    outlinable: list[bool] = field(default_factory=list)
    #: ``span.start`` of every span for ``locate``, recomputed only when
    #: the span count changes (``map_group`` only appends).
    _starts: list[int] = field(default_factory=list, init=False, repr=False, compare=False)

    def locate(self, position: int) -> tuple[int, int]:
        """Map a group position to ``(method_index, byte_offset)``."""
        if len(self._starts) != len(self.spans):
            self._starts = [span.start for span in self.spans]
        i = bisect.bisect_right(self._starts, position) - 1
        if i >= 0:
            span = self.spans[i]
            if span.start <= position < span.start + span.words:
                return span.method_index, 4 * (position - span.start)
        raise IndexError(position)


class SymbolMapper:
    """Stateful mapper handing out unique separator symbols."""

    def __init__(self) -> None:
        self._next_separator = -2  # -1 is the suffix-tree terminal

    def separator(self) -> int:
        symbol = self._next_separator
        self._next_separator -= 1
        return symbol

    def map_method(
        self,
        code: bytes,
        metadata: MethodMetadata,
        *,
        slowpath_only: bool = False,
        reloc_offsets: frozenset[int] = frozenset(),
    ) -> tuple[list[int], list[bool]]:
        """Symbol sequence for one method (one symbol per 32-bit word).

        ``slowpath_only`` applies the HfOpti mask: outside slowpath
        extents everything becomes a separator.  ``reloc_offsets`` marks
        instructions carrying relocations (``add`` with an ``LO12``
        fixup, for instance): their immediates are bound per call-site at
        link time, so two occurrences that are bit-identical *now* may
        diverge later — they can never share an outlined copy.
        """
        symbols: list[int] = []
        outlinable: list[bool] = []
        terminator_set = set(metadata.terminators)
        for offset in range(0, len(code), 4):
            ok = offset not in reloc_offsets and self._word_outlinable(
                code, metadata, offset, terminator_set
            )
            if ok and slowpath_only and not metadata.in_slowpath(offset):
                ok = False
            if ok:
                symbols.append(int.from_bytes(code[offset : offset + 4], "little"))
            else:
                symbols.append(self.separator())
            outlinable.append(ok)
        return symbols, outlinable

    @staticmethod
    def _word_outlinable(
        code: bytes, metadata: MethodMetadata, offset: int, terminators: set[int]
    ) -> bool:
        if metadata.in_embedded_data(offset):
            return False
        if offset in terminators:
            return False
        word = int.from_bytes(code[offset : offset + 4], "little")
        try:
            instr = decode(word)
        except DecodeError:
            # Only embedded data may fail to decode; anything else means
            # the metadata is out of sync with the code.
            raise OutlineError(
                f"{metadata.method_name}+{offset:#x}: undecodable word outside "
                f"declared embedded data"
            ) from None
        if instr.is_terminator or instr.is_call or instr.is_pc_relative:
            return False
        if touches_lr(instr) or writes_sp(instr):
            return False
        return True


def map_group(
    methods: list[tuple[int, CompiledMethod]],
    hot_names: frozenset[str] = frozenset(),
) -> GroupSequence:
    """Build the group symbol sequence for repeat mining.

    ``methods`` carries ``(method_index, compiled_method)`` pairs —
    indices refer to the caller's full method list.  Hot methods (HfOpti)
    participate with their slowpaths only.
    """
    mapper = SymbolMapper()
    group = GroupSequence()
    for method_index, method in methods:
        assert method.metadata is not None
        slowpath_only = method.name in hot_names
        symbols, outlinable = mapper.map_method(
            method.code,
            method.metadata,
            slowpath_only=slowpath_only,
            reloc_offsets=frozenset(r.offset for r in method.relocations),
        )
        group.spans.append(
            MethodSpan(method_index=method_index, start=len(group.symbols), words=len(symbols))
        )
        group.symbols.extend(symbols)
        group.outlinable.extend(outlinable)
        # Method boundary: one more unique separator.
        group.symbols.append(mapper.separator())
        group.outlinable.append(False)
    return group
