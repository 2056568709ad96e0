"""Structural verifier rejection cases."""

from __future__ import annotations

import dataclasses
import re

import pytest

from repro.dex import (
    DexClass,
    DexFile,
    DexMethod,
    MethodBuilder,
    VerificationError,
    bytecode as bc,
    verify_dexfile,
    verify_method,
)


def _file_with(method: DexMethod, extra: list[DexMethod] | None = None) -> DexFile:
    return DexFile(classes=[DexClass("LT;", [method] + (extra or []))])


def test_register_out_of_range():
    m = DexMethod(
        name="LT;->bad", num_registers=2, num_inputs=0,
        code=[bc.Const(dst=5, value=1), bc.Return(src=0)],
    )
    with pytest.raises(VerificationError, match="v5 out of range"):
        verify_method(m)


def test_branch_target_out_of_range():
    m = DexMethod(
        name="LT;->bad", num_registers=2, num_inputs=0,
        code=[bc.Goto(target=99), bc.ReturnVoid()],
    )
    with pytest.raises(VerificationError, match="branch target"):
        verify_method(m)


def test_fall_off_end():
    m = DexMethod(
        name="LT;->bad", num_registers=2, num_inputs=0,
        code=[bc.Const(dst=0, value=1)],
    )
    with pytest.raises(VerificationError, match="fall off"):
        verify_method(m)


def test_empty_body():
    m = DexMethod(name="LT;->bad", num_registers=1, num_inputs=0, code=[])
    with pytest.raises(VerificationError, match="empty"):
        verify_method(m)


def test_unknown_callee():
    b = MethodBuilder("LT;->c", num_inputs=0, num_registers=2)
    b.invoke_static("LT;->ghost", dst=0)
    b.ret(0)
    with pytest.raises(VerificationError, match="unknown callee"):
        verify_dexfile(_file_with(b.build()))


def test_too_many_args():
    m = DexMethod(
        name="LT;->bad", num_registers=8, num_inputs=7,
        code=[bc.InvokeStatic(method="LT;->bad", args=(0, 1, 2, 3, 4, 5, 6)), bc.ReturnVoid()],
        returns_value=False,
    )
    with pytest.raises(VerificationError, match="more than 6"):
        verify_method(m)


def test_more_inputs_than_registers():
    with pytest.raises(ValueError, match="more inputs"):
        DexMethod(name="LT;->bad", num_registers=1, num_inputs=2)


def test_native_with_code_rejected():
    with pytest.raises(ValueError, match="native"):
        DexMethod(
            name="LT;->bad", num_registers=1, num_inputs=0,
            code=[bc.ReturnVoid()], is_native=True,
        )


def test_string_index_out_of_range():
    b = MethodBuilder("LT;->s", num_inputs=0, num_registers=2)
    b.const_string(0, 3)
    b.ret(0)
    dex = DexFile(classes=[DexClass("LT;", [b.build()])], string_table=["only-one"])
    with pytest.raises(VerificationError, match="string index"):
        verify_dexfile(dex)


def test_void_callee_result_rejected():
    void = MethodBuilder("LT;->v", num_inputs=0, num_registers=1, returns_value=False)
    void.ret_void()
    caller = MethodBuilder("LT;->c", num_inputs=0, num_registers=2)
    caller.invoke_static("LT;->v", dst=0)
    caller.ret(0)
    with pytest.raises(VerificationError, match="expects a result"):
        verify_dexfile(_file_with(caller.build(), [void.build()]))


def test_duplicate_method_names():
    a = MethodBuilder("LT;->x", num_inputs=0, num_registers=1)
    a.ret(0)
    b = MethodBuilder("LT;->x", num_inputs=0, num_registers=1)
    b.ret(0)
    with pytest.raises(VerificationError, match="duplicate"):
        verify_dexfile(_file_with(a.build(), [b.build()]))


def test_valid_file_passes(small_app):
    verify_dexfile(small_app.dexfile)  # must not raise


def test_native_methods_skip_body_checks():
    m = DexMethod(name="LT;->nat", num_registers=2, num_inputs=2, is_native=True)
    verify_method(m)  # no code, no complaints


#: One out-of-range register per register-carrying class (``Const`` is
#: covered above), and one per register role of the invokes.
_BAD_REGISTER = [
    bc.ConstString(dst=9, string_idx=0),
    bc.Move(dst=0, src=9),
    bc.BinOp(op="add", dst=0, lhs=1, rhs=9),
    bc.BinOpLit(op="add", dst=0, lhs=9, literal=1),
    bc.If(cmp="eq", lhs=0, rhs=9, target=1),
    bc.IfZ(cmp="eq", lhs=9, target=1),
    bc.PackedSwitch(value=9, first_key=0, targets=(1,)),
    bc.Return(src=9),
    bc.InvokeStatic(method="LT;->f", args=(0, 9)),
    bc.InvokeStatic(method="LT;->f", args=(0,), dst=9),
    bc.InvokeVirtual(method="LT;->f", receiver=9),
    bc.InvokeVirtual(method="LT;->f", receiver=0, args=(9,)),
    bc.InvokeVirtual(method="LT;->f", receiver=0, dst=9),
    bc.NewInstance(dst=9, class_idx=0),
    bc.NewArray(dst=0, size=9),
    bc.ArrayLength(dst=0, array=9),
    bc.IGet(dst=0, obj=9, field_idx=0),
    bc.IPut(src=0, obj=9, field_idx=0),
    bc.AGet(dst=0, array=1, index=9),
    bc.APut(src=0, array=1, index=9),
]


@pytest.mark.parametrize(
    "instr", _BAD_REGISTER, ids=lambda instr: type(instr).__name__
)
def test_register_out_of_range_per_class(instr):
    m = DexMethod(
        name="LT;->bad", num_registers=2, num_inputs=0,
        code=[instr, bc.Return(src=0)],
    )
    where = f"instruction 0 ({type(instr).__name__})"
    with pytest.raises(VerificationError, match=rf"v9 out of range at {re.escape(where)}"):
        verify_method(m)


def test_featured_app_holds_every_checked_idiom(featured_app):
    methods = featured_app.dexfile.all_methods()
    kinds = {type(instr) for m in methods for instr in m.code}
    assert {bc.ConstString, bc.PackedSwitch} <= kinds
    assert any(m.is_native for m in methods)
    assert any(not m.returns_value for m in methods)
    verify_dexfile(featured_app.dexfile)  # must not raise


def test_string_index_out_of_range_in_generated_app(featured_app):
    dex = featured_app.dexfile
    short = DexFile(classes=dex.classes, string_table=dex.string_table[:-1])
    with pytest.raises(
        VerificationError, match=rf"->log: string index {len(short.string_table)} out of range"
    ):
        verify_dexfile(short)


def test_void_result_use_in_generated_app(featured_app):
    dex = featured_app.dexfile
    featured = dex.classes[-1]
    pick = featured.methods[-1]
    call = pick.code[0]
    assert isinstance(call, bc.InvokeStatic) and call.dst is None
    bad_pick = dataclasses.replace(
        pick, code=[dataclasses.replace(call, dst=1), *pick.code[1:]]
    )
    bad = DexFile(
        classes=[*dex.classes[:-1], DexClass(featured.name, [*featured.methods[:-1], bad_pick])],
        string_table=dex.string_table,
    )
    with pytest.raises(VerificationError, match=r"->pick: expects a result from void .*->log"):
        verify_dexfile(bad)
