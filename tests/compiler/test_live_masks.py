"""StackMap live-vreg masks: safepoints record what the GC must keep."""

from __future__ import annotations

from repro.compiler import dex2oat
from repro.core import CalibroConfig, build_app
from repro.dex import DexClass, DexFile, MethodBuilder


def _compile(methods) -> dict:
    dex = DexFile(classes=[DexClass("LT;", [m.build() for m in methods])])
    result = dex2oat(dex)
    return {m.name: m for m in result.methods}


def test_value_live_across_call_is_in_mask():
    callee = MethodBuilder("LT;->c", num_inputs=1, num_registers=2)
    callee.ret(0)
    b = MethodBuilder("LT;->m", num_inputs=2, num_registers=5)
    b.binop("add", 2, 0, 1)                      # v2 live across the call
    b.invoke_static("LT;->c", args=(0,), dst=3)
    b.binop("add", 4, 2, 3)                      # ... because it is used here
    b.ret(4)
    cm = _compile([callee, b])["LT;->m"]
    call_map = next(e for e in cm.stackmaps.entries if e.kind == "call")
    assert call_map.live_vregs & (1 << 2)


def test_dead_value_not_in_mask():
    callee = MethodBuilder("LT;->c", num_inputs=1, num_registers=2)
    callee.ret(0)
    b = MethodBuilder("LT;->m", num_inputs=2, num_registers=5)
    b.binop("add", 2, 0, 1)                      # v2 dead after the call
    b.invoke_static("LT;->c", args=(2,), dst=3)
    b.ret(3)
    cm = _compile([callee, b])["LT;->m"]
    call_map = next(e for e in cm.stackmaps.entries if e.kind == "call")
    assert not call_map.live_vregs & (1 << 2)


def test_slowpath_maps_have_zero_mask():
    b = MethodBuilder("LT;->m", num_inputs=2, num_registers=4)
    b.new_instance(2, class_idx=1, num_fields=1)
    b.iget(3, 2, 0)
    b.ret(3)
    cm = _compile([b])["LT;->m"]
    for e in cm.stackmaps.entries:
        if e.kind == "slowpath":
            assert e.live_vregs == 0


def test_masks_survive_outlining(small_app):
    """The outliner remaps native PCs but must not disturb masks."""
    plain = build_app(small_app.dexfile, CalibroConfig.cto())
    outlined = build_app(small_app.dexfile, CalibroConfig.cto_ltbo())
    for name, record in outlined.oat.methods.items():
        if record.stackmaps is None or name not in plain.oat.methods:
            continue
        before = plain.oat.methods[name].stackmaps
        if before is None:
            continue
        assert [e.live_vregs for e in record.stackmaps.entries] == [
            e.live_vregs for e in before.entries
        ]
        assert [e.dex_pc for e in record.stackmaps.entries] == [
            e.dex_pc for e in before.entries
        ]
