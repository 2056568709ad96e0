"""Compiled-method container and relocation records.

A compiled method is position independent until the linker binds it:
internal control flow is PC-relative (and described by the LTBO
metadata), while references that cross the method boundary are kept
symbolic as :class:`Relocation` records — the paper's observation that
"the target labels of call instructions ... have not been bound to
addresses or offsets at this time" is what makes link-time outlining
tractable.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import cached_property

from repro.compiler.stackmap import StackMapTable
from repro.core.metadata import MethodMetadata

__all__ = ["CompiledMethod", "Relocation", "RelocKind"]


class RelocKind:
    """Relocation kinds (named after their ELF AArch64 analogues)."""

    #: ``bl`` — 26-bit PC-relative call (R_AARCH64_CALL26).
    CALL26 = "call26"
    #: ``adrp`` — 21-bit page delta (R_AARCH64_ADR_PREL_PG_HI21).
    ADRP_PAGE21 = "adrp_page21"
    #: ``add`` — low 12 bits of an absolute address (R_AARCH64_ADD_ABS_LO12_NC).
    ADD_LO12 = "add_lo12"
    #: 8-byte absolute address stored in embedded data (R_AARCH64_ABS64).
    ABS64 = "abs64"
    #: 8-byte absolute address of a method-local offset (jump tables).
    LOCAL_ABS64 = "local_abs64"
    #: ``b`` — 26-bit PC-relative tail jump (R_AARCH64_JUMP26); emitted
    #: by the merge pass's thunks.
    JUMP26 = "jump26"

    ALL = (CALL26, ADRP_PAGE21, ADD_LO12, ABS64, LOCAL_ABS64, JUMP26)


@dataclass(frozen=True)
class Relocation:
    """A symbolic reference to be bound by the linker.

    ``offset`` is method-local; ``symbol`` names a method, an ArtMethod
    slot (``artmethod:<name>``), a data object (``data:<name>``) or — for
    ``LOCAL_ABS64`` — the owning method itself with ``addend`` holding
    the method-local target offset.
    """

    offset: int
    kind: str
    symbol: str
    addend: int = 0

    def __post_init__(self) -> None:
        if self.kind not in RelocKind.ALL:
            raise ValueError(f"unknown relocation kind {self.kind!r}")


@dataclass
class CompiledMethod:
    """One method's code blob plus all its side tables."""

    name: str
    code: bytes
    relocations: list[Relocation] = field(default_factory=list)
    metadata: MethodMetadata | None = None
    stackmaps: StackMapTable | None = None
    frame_size: int = 0
    #: Names this method calls (static call-graph edges, incl. thunks).
    callees: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if len(self.code) % 4:
            raise ValueError(f"{self.name}: code size {len(self.code)} not word aligned")
        if self.metadata is not None and self.metadata.code_size != len(self.code):
            raise ValueError(f"{self.name}: metadata size disagrees with code size")

    @property
    def size(self) -> int:
        return len(self.code)

    @cached_property
    def fingerprint(self) -> bytes:
        """SHA-256 over every field: the code bytes (length-prefixed),
        then the ``repr`` of the name, frame size, callees, relocations,
        metadata and StackMaps.  Those are dataclasses, lists and
        tuples of ints, strings and bools, so the ``repr`` is
        deterministic across processes and names every field.

        The content key of a compiled method, for the outline cache's
        group keys and the merge node key.  Computed once per object:
        a compiled method is never mutated once codegen returns (a
        rewrite builds a new one), and a pickle taken afterwards
        carries the digest along."""
        h = hashlib.sha256(len(self.code).to_bytes(8, "little"))
        h.update(self.code)
        h.update(repr((
            self.name, self.frame_size, self.callees,
            self.relocations, self.metadata, self.stackmaps,
        )).encode("utf-8"))
        return h.digest()
