"""Optimization passes: unit behaviour plus semantic preservation.

The preservation property compares dex interpretation of the original
method against emulated execution of the *optimized and compiled*
method — passes are only correct if that end-to-end equality holds.
"""

from __future__ import annotations

import random

from repro.dex import DexClass, DexFile, Interpreter, MethodBuilder
from repro.hgraph import build_hgraph, optimize
from repro.hgraph.passes import (
    eliminate_dead_code,
    fold_constants,
    merge_returns,
    propagate_copies,
    remove_unreachable,
    value_number,
)


def _kinds(graph):
    return [i.kind for bid in graph.block_order() for i in graph.blocks[bid].instructions]


class TestConstantFolding:
    def test_binop_of_constants_folds(self):
        b = MethodBuilder("LT;->f", num_inputs=0, num_registers=4)
        b.const(0, 6)
        b.const(1, 7)
        b.binop("mul", 2, 0, 1)
        b.ret(2)
        g = build_hgraph(b.build())
        assert fold_constants(g)
        consts = [i for blk in g.blocks.values() for i in blk.instructions if i.kind == "const"]
        assert any(i.extra["value"] == 42 for i in consts)

    def test_div_by_zero_not_folded(self):
        b = MethodBuilder("LT;->f", num_inputs=0, num_registers=4)
        b.const(0, 6)
        b.const(1, 0)
        b.binop("div", 2, 0, 1)
        b.ret(2)
        g = build_hgraph(b.build())
        fold_constants(g)
        assert "binop" in _kinds(g)  # the throwing div survives

    def test_constant_branch_becomes_goto(self):
        b = MethodBuilder("LT;->f", num_inputs=0, num_registers=4)
        t = b.new_label()
        b.const(0, 1)
        b.if_z("eq", 0, t)  # never taken
        b.const(1, 10)
        b.ret(1)
        b.bind(t)
        b.const(1, 20)
        b.ret(1)
        g = build_hgraph(b.build())
        assert fold_constants(g)
        entry = g.blocks[g.entry_id]
        assert entry.terminator.kind == "goto"
        assert len(entry.successors) == 1

    def test_algebraic_identities(self):
        b = MethodBuilder("LT;->f", num_inputs=1, num_registers=4)
        b.const(1, 0)
        b.binop("add", 2, 0, 1)  # x + 0 -> move
        b.ret(2)
        g = build_hgraph(b.build())
        assert fold_constants(g)
        assert "move" in _kinds(g)


class TestCopyPropagationAndGVN:
    def test_copy_chain_collapses(self):
        b = MethodBuilder("LT;->f", num_inputs=1, num_registers=5)
        b.move(1, 0)
        b.move(2, 1)
        b.binop("add", 3, 2, 2)
        b.ret(3)
        g = build_hgraph(b.build())
        assert propagate_copies(g)
        add = next(i for blk in g.blocks.values() for i in blk.instructions if i.kind == "binop")
        assert add.uses == (0, 0)

    def test_gvn_reuses_expression(self):
        b = MethodBuilder("LT;->f", num_inputs=2, num_registers=6)
        b.binop("add", 2, 0, 1)
        b.binop("add", 3, 0, 1)  # same expression
        b.binop("mul", 4, 2, 3)
        b.ret(4)
        g = build_hgraph(b.build())
        assert value_number(g)
        kinds = _kinds(g)
        assert kinds.count("binop") == 2  # one add + the mul
        assert "move" in kinds

    def test_gvn_respects_stores(self):
        b = MethodBuilder("LT;->f", num_inputs=2, num_registers=8)
        b.new_instance(2, class_idx=1, num_fields=2)
        b.iget(3, 2, 0)
        b.iput(1, 2, 0)   # memory changes
        b.iget(4, 2, 0)   # must NOT be CSE'd with the first iget
        b.binop("sub", 5, 4, 3)
        b.ret(5)
        g = build_hgraph(b.build())
        value_number(g)
        kinds = _kinds(g)
        assert kinds.count("iget") == 2

    def test_gvn_reuses_loads_without_intervening_store(self):
        b = MethodBuilder("LT;->f", num_inputs=2, num_registers=8)
        b.new_instance(2, class_idx=1, num_fields=2)
        b.iput(0, 2, 0)
        b.iget(3, 2, 0)
        b.iget(4, 2, 0)   # same load, same memory epoch
        b.binop("add", 5, 3, 4)
        b.ret(5)
        g = build_hgraph(b.build())
        assert value_number(g)
        assert _kinds(g).count("iget") == 1


class TestDCE:
    def test_dead_pure_instruction_removed(self):
        b = MethodBuilder("LT;->f", num_inputs=2, num_registers=5)
        b.binop("add", 2, 0, 1)   # dead
        b.binop("sub", 3, 0, 1)
        b.ret(3)
        g = build_hgraph(b.build())
        assert eliminate_dead_code(g)
        assert _kinds(g).count("binop") == 1

    def test_call_with_dead_result_survives(self):
        callee = MethodBuilder("LT;->c", num_inputs=0, num_registers=1)
        callee.const(0, 1)
        callee.ret(0)
        b = MethodBuilder("LT;->f", num_inputs=0, num_registers=3)
        b.invoke_static("LT;->c", dst=0)  # result dead, call effectful
        b.const(1, 5)
        b.ret(1)
        g = build_hgraph(b.build())
        eliminate_dead_code(g)
        assert "invoke-static" in _kinds(g)

    def test_live_across_blocks_kept(self):
        b = MethodBuilder("LT;->f", num_inputs=1, num_registers=4)
        t = b.new_label()
        b.binop_lit("add", 1, 0, 5)
        b.if_z("eq", 0, t)
        b.ret(1)
        b.bind(t)
        b.ret(1)
        g = build_hgraph(b.build())
        eliminate_dead_code(g)
        assert "binop-lit" in _kinds(g)


class TestCFGPasses:
    def test_unreachable_removed(self):
        b = MethodBuilder("LT;->f", num_inputs=0, num_registers=2)
        end = b.new_label()
        b.goto(end)
        b.const(0, 1)  # unreachable
        b.bind(end)
        b.const(0, 2)
        b.ret(0)
        g = build_hgraph(b.build())
        n_before = len(g.blocks)
        assert remove_unreachable(g)
        assert len(g.blocks) < n_before

    def test_return_merging_single_exit(self):
        b = MethodBuilder("LT;->f", num_inputs=1, num_registers=4)
        t = b.new_label()
        b.if_z("eq", 0, t)
        b.const(1, 1)
        b.ret(1)
        b.bind(t)
        b.const(1, 2)
        b.ret(1)
        g = build_hgraph(b.build())
        assert merge_returns(g)
        returns = [blk for blk in g.blocks.values() if blk.terminator.kind == "return"]
        assert len(returns) == 1
        g.validate()

    def test_return_merging_noop_for_single_return(self):
        b = MethodBuilder("LT;->f", num_inputs=1, num_registers=2)
        b.ret(0)
        g = build_hgraph(b.build())
        assert not merge_returns(g)


class TestSemanticPreservation:
    """Passes must never change observable behaviour: interpret the
    original, compile+emulate the optimized graph, compare."""

    def test_random_programs_preserved(self):
        from repro.workloads import app_spec, generate_app
        from repro.core import CalibroConfig, build_app
        from repro.runtime import Emulator

        app = generate_app(app_spec("Meituan", scale=0.12))
        interp = Interpreter(
            app.dexfile, native_handlers=app.native_handlers, max_steps=100_000_000
        )
        build = build_app(app.dexfile, CalibroConfig.baseline())  # passes on
        emu = Emulator(build.oat, app.dexfile, native_handlers=app.native_handlers)
        rng = random.Random(3)
        for name in app.dexfile.method_names()[:40]:
            args = [rng.randint(0, 500), rng.randint(0, 500)]
            want = interp.call(name, args)
            got = emu.call(name, args)
            assert got.trap is None
            assert got.value == want, name

    def test_pass_manager_reaches_fixpoint(self):
        b = MethodBuilder("LT;->f", num_inputs=2, num_registers=8)
        b.const(2, 3)
        b.binop("add", 3, 0, 2)
        b.move(4, 3)
        b.binop("add", 5, 0, 2)
        b.binop("mul", 6, 4, 5)
        b.ret(6)
        g = build_hgraph(b.build())
        before = g.instruction_count()
        stats = optimize(g)
        assert stats.instructions_after <= before
        assert stats.iterations >= 1
        g.validate()
