"""Structural verifier for mini-DEX methods.

A trimmed-down analogue of the ART verifier: it checks the structural
invariants the compiler relies on, so that malformed methods fail fast
with a clear message instead of miscompiling.
"""

from __future__ import annotations

from typing import Container

from repro.dex import bytecode as bc
from repro.dex.method import DexFile, DexMethod

__all__ = ["VerificationError", "verify_dexfile", "verify_method"]


class VerificationError(ValueError):
    """A method violates a structural invariant."""


def _where(idx: int, instr: bc.Instruction) -> str:
    """An error's location, formatted only once a check has failed."""
    return f"instruction {idx} ({type(instr).__name__})"


def verify_method(method: DexMethod, known_methods: Container[str] | None = None) -> None:
    """Check register ranges, branch targets, terminator placement and
    (optionally) that every invoked method exists."""
    if method.is_native:
        return
    code = method.code
    if not code:
        raise VerificationError(f"{method.name}: empty method body")

    last = code[-1]
    if not (last.is_branch and isinstance(last, (bc.Return, bc.ReturnVoid, bc.Goto))):
        raise VerificationError(f"{method.name}: control can fall off the end")

    for idx, instr in enumerate(code):
        for target in instr.branch_targets():
            if not 0 <= target < len(code):
                raise VerificationError(f"{method.name}: branch target {target} out of range at {_where(idx, instr)}")
        regs: list[int] = []
        if isinstance(instr, (bc.Const, bc.ConstString)):
            regs = [instr.dst]
        elif isinstance(instr, bc.Move):
            regs = [instr.dst, instr.src]
        elif isinstance(instr, bc.BinOp):
            regs = [instr.dst, instr.lhs, instr.rhs]
        elif isinstance(instr, bc.BinOpLit):
            regs = [instr.dst, instr.lhs]
        elif isinstance(instr, bc.If):
            regs = [instr.lhs, instr.rhs]
        elif isinstance(instr, (bc.IfZ, bc.PackedSwitch)):
            regs = [instr.lhs] if isinstance(instr, bc.IfZ) else [instr.value]
        elif isinstance(instr, bc.Return):
            regs = [instr.src]
        elif isinstance(instr, bc.InvokeStatic):
            regs = list(instr.args) + ([instr.dst] if instr.dst is not None else [])
            if len(instr.args) > 6:
                raise VerificationError(f"{method.name}: more than 6 call arguments at {_where(idx, instr)}")
        elif isinstance(instr, bc.InvokeVirtual):
            regs = [instr.receiver] + list(instr.args)
            if instr.dst is not None:
                regs.append(instr.dst)
            if len(instr.args) > 5:
                raise VerificationError(f"{method.name}: more than 5 virtual call arguments at {_where(idx, instr)}")
        elif isinstance(instr, bc.NewInstance):
            regs = [instr.dst]
        elif isinstance(instr, bc.NewArray):
            regs = [instr.dst, instr.size]
        elif isinstance(instr, bc.ArrayLength):
            regs = [instr.dst, instr.array]
        elif isinstance(instr, bc.IGet):
            regs = [instr.dst, instr.obj]
        elif isinstance(instr, bc.IPut):
            regs = [instr.src, instr.obj]
        elif isinstance(instr, bc.AGet):
            regs = [instr.dst, instr.array, instr.index]
        elif isinstance(instr, bc.APut):
            regs = [instr.src, instr.array, instr.index]
        for reg in regs:
            if not 0 <= reg < method.num_registers:
                raise VerificationError(
                    f"{method.name}: register v{reg} out of range at "
                    f"{_where(idx, instr)} (method declares {method.num_registers})"
                )
        if known_methods is not None and isinstance(
            instr, (bc.InvokeStatic, bc.InvokeVirtual)
        ):
            if instr.method not in known_methods:
                raise VerificationError(f"{method.name}: unknown callee {instr.method!r} at {_where(idx, instr)}")
        if isinstance(instr, bc.Return) and not method.returns_value:
            raise VerificationError(f"{method.name}: value return in void method at {_where(idx, instr)}")


def verify_dexfile(dexfile: DexFile) -> None:
    """Verify every method, resolving callees across the whole file
    through one name index."""
    methods = dexfile.all_methods()
    by_name = {method.name: method for method in methods}
    if len(by_name) != len(methods):
        raise VerificationError("duplicate method names in dex file")
    for method in methods:
        verify_method(method, known_methods=by_name)
        for instr in method.code:
            if isinstance(instr, bc.ConstString) and not (
                0 <= instr.string_idx < len(dexfile.string_table)
            ):
                raise VerificationError(
                    f"{method.name}: string index {instr.string_idx} out of range"
                )
            if isinstance(instr, (bc.InvokeStatic, bc.InvokeVirtual)):
                callee = by_name[instr.method]
                expects = instr.dst is not None
                if expects and not callee.returns_value and not callee.is_native:
                    raise VerificationError(
                        f"{method.name}: expects a result from void {callee.name}"
                    )
