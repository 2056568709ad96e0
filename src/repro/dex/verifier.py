"""Structural verifier for mini-DEX methods.

A trimmed-down analogue of the ART verifier: it checks the structural
invariants the compiler relies on, so that malformed methods fail fast
with a clear message instead of miscompiling.
"""

from __future__ import annotations

from typing import Container

from repro.core.errors import CalibroError
from repro.dex import bytecode as bc
from repro.dex.method import DexFile, DexMethod

__all__ = ["VerificationError", "verify_dexfile", "verify_method"]


class VerificationError(CalibroError, ValueError):
    """A method violates a structural invariant (CLI exit code 1)."""


def _where(idx: int, instr: bc.Instruction) -> str:
    """An error's location, formatted only once a check has failed."""
    return f"instruction {idx} ({type(instr).__name__})"


#: The register fields of each bytecode class, in check order.  The
#: invokes' registers vary in number, so ``verify_method`` reads them
#: itself.
_REGISTER_FIELDS: dict[type, tuple[str, ...]] = {
    bc.Const: ("dst",),
    bc.ConstString: ("dst",),
    bc.Move: ("dst", "src"),
    bc.BinOp: ("dst", "lhs", "rhs"),
    bc.BinOpLit: ("dst", "lhs"),
    bc.If: ("lhs", "rhs"),
    bc.IfZ: ("lhs",),
    bc.PackedSwitch: ("value",),
    bc.Return: ("src",),
    bc.NewInstance: ("dst",),
    bc.NewArray: ("dst", "size"),
    bc.ArrayLength: ("dst", "array"),
    bc.IGet: ("dst", "obj"),
    bc.IPut: ("src", "obj"),
    bc.AGet: ("dst", "array", "index"),
    bc.APut: ("src", "array", "index"),
}


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

    num_registers = method.num_registers
    for idx, instr in enumerate(code):
        for target in instr.branch_targets():
            if not 0 <= target < len(code):
                raise VerificationError(f"{method.name}: branch target {target} out of range at {_where(idx, instr)}")
        kind = type(instr)
        fields = _REGISTER_FIELDS.get(kind)
        if fields is not None:
            regs = [getattr(instr, name) for name in fields]
        elif kind is bc.InvokeStatic:
            regs = list(instr.args) + ([instr.dst] if instr.dst is not None else [])
            if len(instr.args) > 6:
                raise VerificationError(f"{method.name}: more than 6 call arguments at {_where(idx, instr)}")
        elif kind is bc.InvokeVirtual:
            regs = [instr.receiver] + list(instr.args)
            if instr.dst is not None:
                regs.append(instr.dst)
            if len(instr.args) > 5:
                raise VerificationError(f"{method.name}: more than 5 virtual call arguments at {_where(idx, instr)}")
        else:
            continue
        for reg in regs:
            if not 0 <= reg < num_registers:
                raise VerificationError(
                    f"{method.name}: register v{reg} out of range at "
                    f"{_where(idx, instr)} (method declares {num_registers})"
                )
        # Only an invoke gets here without a field table entry.
        if fields is None and known_methods is not None and instr.method not in known_methods:
            raise VerificationError(f"{method.name}: unknown callee {instr.method!r} at {_where(idx, instr)}")
        if kind is bc.Return and not method.returns_value:
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
            kind = type(instr)
            if kind is bc.ConstString and not (
                0 <= instr.string_idx < len(dexfile.string_table)
            ):
                raise VerificationError(
                    f"{method.name}: string index {instr.string_idx} out of range"
                )
            if kind is bc.InvokeStatic or kind is bc.InvokeVirtual:
                callee = by_name[instr.method]
                expects = instr.dst is not None
                if expects and not callee.returns_value and not callee.is_native:
                    raise VerificationError(
                        f"{method.name}: expects a result from void {callee.name}"
                    )
