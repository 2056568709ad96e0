"""Global function merging: fold, similar-merge, caching, identity.

Unit tests drive :func:`repro.core.merge.merge_functions` over synthetic
A64 functions where every decision is enumerable by hand; the
whole-build tests then hold the `merging=True` pipeline to the same
bar as every other configuration — byte-identical whichever index
mines the groups, across shard widths and the incremental graph, and
semantically identical on the emulator.
"""

from __future__ import annotations

from dataclasses import replace as dc_replace

import pytest

from repro.compiler import CompiledMethod, Relocation, RelocKind
from repro.core import CalibroConfig, build_app
from repro.core.benefit import MergeBenefit, evaluate_merge
from repro.core.merge import (
    MergePlan,
    merge_functions,
    merge_node_key,
)
from repro.core.metadata import (
    DataExtent,
    MethodMetadata,
    PcRelativeRef,
    SlowpathExtent,
)
from repro.isa import decode, instructions as ins
from repro.oat import link
from repro.runtime.emulator import Emulator
from repro.service.cache import OutlineCache
from tests.properties.test_miner_equivalence import UkkonenMiner


def _leaf(name: str, imm: int, *, filler: int = 6) -> CompiledMethod:
    """``movz x0, #imm`` + ``filler`` nops + ``ret`` — long enough that
    a two-member merge clears the benefit gate."""
    code = ins.MoveWide(op="movz", rd=0, imm16=imm, hw=0, sf=True).encode_bytes()
    code += ins.Nop().encode_bytes() * filler
    code += ins.Ret().encode_bytes()
    return CompiledMethod(
        name=name,
        code=code,
        metadata=MethodMetadata(
            method_name=name, code_size=len(code), terminators=[len(code) - 4]
        ),
    )


def _caller(name: str, callee: str) -> CompiledMethod:
    code = ins.Bl(offset=0).encode_bytes() + ins.Ret().encode_bytes()
    return CompiledMethod(
        name=name,
        code=code,
        relocations=[Relocation(offset=0, kind=RelocKind.CALL26, symbol=callee)],
        metadata=MethodMetadata(
            method_name=name, code_size=len(code), terminators=[len(code) - 4]
        ),
        callees=(callee,),
    )


class TestBenefitModel:
    def test_fold_saves_every_clone(self):
        assert evaluate_merge(10, 3, 0) == 20  # length*(members-1)

    def test_thunk_merge_charges_loads_and_jump(self):
        # 8*2 - (8 + 2*(1+1)) = 4
        assert evaluate_merge(8, 2, 1) == 4

    def test_unprofitable_group_goes_negative(self):
        assert evaluate_merge(2, 2, 1) < 0

    def test_validation(self):
        with pytest.raises(ValueError):
            MergeBenefit(length=0, members=2, params=0)
        with pytest.raises(ValueError):
            MergeBenefit(length=4, members=1, params=0)
        with pytest.raises(ValueError):
            MergeBenefit(length=4, members=2, params=-1)


class TestFold:
    def test_identical_functions_fold_to_aliases(self):
        a, b = _leaf("f_a", 7), _leaf("f_b", 7)
        result = merge_functions([a, b])
        assert result.aliases == {"f_b": "f_a"}
        assert [m.name for m in result.methods] == ["f_a"]
        assert result.stats.functions_folded == 1
        assert result.stats.saved_bytes == b.size

    def test_different_immediates_do_not_fold(self):
        result = merge_functions([_leaf("f_a", 1), _leaf("f_b", 2, filler=1)])
        assert result.aliases == {}

    def test_fold_is_transitive_through_resolved_callees(self):
        # c_b folds into c_a; that makes the two callers byte-identical
        # *after* symbol resolution, so the second round folds them too.
        methods = [
            _leaf("c_a", 7), _leaf("c_b", 7),
            _caller("caller_a", "c_a"), _caller("caller_b", "c_b"),
        ]
        result = merge_functions(methods)
        assert result.aliases == {"c_b": "c_a", "caller_b": "caller_a"}

    def test_folded_names_still_resolve_after_linking(self):
        a, b = _leaf("f_a", 41), _leaf("f_b", 41)
        result = merge_functions([a, b])
        oat = link(result.methods, aliases=result.aliases)
        assert oat.entry_address("f_b") == oat.entry_address("f_a")
        emulator = Emulator(oat)
        assert emulator.call("f_a").value == 41
        assert emulator.call("f_b").value == 41


class TestSimilarMerge:
    def test_movz_variants_merge_into_thunks(self):
        result = merge_functions([_leaf("f_a", 1234), _leaf("f_b", 5678)])
        names = [m.name for m in result.methods]
        assert names == ["f_a", "f_b", "MergedFunction$0"]
        assert result.stats.groups_merged == 1
        assert result.stats.functions_merged == 2
        # 8*2 - (8 + 2*2) = 4 instructions = 16 bytes.
        assert result.stats.saved_bytes == 16

        for thunk, imm in zip(result.methods[:2], (1234, 5678)):
            load = decode(int.from_bytes(thunk.code[0:4], "little"))
            assert isinstance(load, ins.MoveWide) and load.rd == 16
            assert load.imm16 == imm
            jump = decode(int.from_bytes(thunk.code[4:8], "little"))
            assert isinstance(jump, ins.B)
            [reloc] = thunk.relocations
            assert reloc.kind == RelocKind.JUMP26
            assert reloc.symbol == "MergedFunction$0"

        merged = result.methods[2]
        moved = decode(int.from_bytes(merged.code[0:4], "little"))
        assert isinstance(moved, ins.LogicalReg)
        assert moved.op == "orr" and moved.rn == 31 and moved.rm == 16

    def test_merged_semantics_on_the_emulator(self):
        result = merge_functions([_leaf("f_a", 1234), _leaf("f_b", 5678)])
        oat = link(result.methods, aliases=result.aliases)
        emulator = Emulator(oat)
        assert emulator.call("f_a").value == 1234
        assert emulator.call("f_b").value == 5678

    def test_benefit_gate_rejects_short_functions(self):
        result = merge_functions([_leaf("f_a", 1, filler=1), _leaf("f_b", 2, filler=1)])
        assert result.stats.groups_merged == 0
        assert result.stats.groups_rejected == 1
        assert [m.name for m in result.methods] == ["f_a", "f_b"]

    def test_min_saved_threshold_applies(self):
        result = merge_functions(
            [_leaf("f_a", 1234), _leaf("f_b", 5678)], min_saved=1000
        )
        assert result.stats.groups_merged == 0
        assert result.stats.groups_rejected == 1

    def test_hot_functions_are_never_thunked(self):
        result = merge_functions(
            [_leaf("f_a", 1234), _leaf("f_b", 5678)],
            hot_names=frozenset({"f_a"}),
        )
        assert result.stats.groups_merged == 0
        assert [m.name for m in result.methods] == ["f_a", "f_b"]

    def test_functions_with_calls_are_ineligible(self):
        result = merge_functions(
            [_caller("f_a", "x"), _caller("f_b", "y")]
        )
        # Different reloc symbols: no fold; calls: no stage-2 merge.
        assert result.stats.groups_merged == 0
        assert result.aliases == {}

    def test_scratch_register_users_are_ineligible(self):
        def leaf_using_x16(name, imm):
            code = ins.MoveWide(op="movz", rd=0, imm16=imm, hw=0, sf=True).encode_bytes()
            code += ins.MoveWide(op="movz", rd=16, imm16=9, hw=0, sf=True).encode_bytes()
            code += ins.Nop().encode_bytes() * 5
            code += ins.Ret().encode_bytes()
            return CompiledMethod(
                name=name, code=code,
                metadata=MethodMetadata(method_name=name, code_size=len(code)),
            )

        result = merge_functions([leaf_using_x16("f_a", 1), leaf_using_x16("f_b", 2)])
        assert result.stats.groups_merged == 0


class TestDeterminismAndCache:
    def test_merge_is_deterministic(self):
        methods = [_leaf("f_a", 1), _leaf("f_b", 1), _leaf("f_c", 3), _leaf("f_d", 4)]
        first = merge_functions(methods)
        second = merge_functions(methods)
        assert first.plan == second.plan
        assert [m.code for m in first.methods] == [m.code for m in second.methods]
        assert first.node_key == second.node_key

    def test_node_key_tracks_every_input(self):
        methods = [_leaf("f_a", 1), _leaf("f_b", 2)]
        base = merge_node_key(methods)
        assert merge_node_key(methods) == base
        assert merge_node_key(methods, min_saved=2) != base
        assert merge_node_key(methods, hot_names=frozenset({"f_a"})) != base
        assert merge_node_key([_leaf("f_a", 1), _leaf("f_b", 3)]) != base
        # The metadata and callees _similar_shape and the thunks read.
        leaf = methods[1]
        edits = {
            "slowpaths": {"slowpaths": [SlowpathExtent(start=4, end=8)]},
            "embedded_data": {"embedded_data": [DataExtent(start=4, size=4)]},
            "terminators": {"terminators": [4, leaf.size - 4]},
            "pc_relative": {"pc_relative": [PcRelativeRef(offset=4, target=8)]},
            "has_indirect_jump": {"has_indirect_jump": True},
        }
        for field_name, change in edits.items():
            edited = dc_replace(leaf, metadata=dc_replace(leaf.metadata, **change))
            assert merge_node_key([methods[0], edited]) != base, field_name
        edited = dc_replace(leaf, callees=("f_a",))
        assert merge_node_key([methods[0], edited]) != base, "callees"

    def test_plan_splices_from_the_cache(self):
        methods = [_leaf("f_a", 1), _leaf("f_b", 1), _leaf("f_c", 10), _leaf("f_d", 20)]
        cache = OutlineCache(None)
        cold = merge_functions(methods, cache=cache)
        warm = merge_functions(methods, cache=cache)
        assert cold.spliced is False and warm.spliced is True
        assert warm.plan == cold.plan
        assert [m.code for m in warm.methods] == [m.code for m in cold.methods]
        # Replayed accounting matches discovery exactly.
        assert warm.stats.as_dict() == cold.stats.as_dict()

    def test_stale_plan_versions_are_ignored(self):
        methods = [_leaf("f_a", 1), _leaf("f_b", 1)]
        cache = OutlineCache(None)
        key = merge_node_key(methods)
        cache.store_object(key, MergePlan(aliases={"f_b": "f_a"}, version=0))
        result = merge_functions(methods, cache=cache)
        assert result.spliced is False


class TestWholeBuildIdentity:
    def test_merging_shrinks_text_and_stays_correct(self, small_app):
        plain = build_app(small_app.dexfile, CalibroConfig.cto_ltbo_plopti(4))
        merged = build_app(
            small_app.dexfile, CalibroConfig.cto_ltbo_plopti(4).with_merging()
        )
        assert merged.merge is not None
        assert merged.merge.stats.saved_bytes > 0
        assert merged.text_size < plain.text_size

    def test_summary_reports_the_merge_fields(self, small_app):
        build = build_app(
            small_app.dexfile, CalibroConfig.cto_ltbo_plopti(2).with_merging()
        )
        summary = build.summary()
        assert summary["merging"] is True
        assert summary["functions_folded"] == build.merge.stats.functions_folded
        assert summary["merge_saved_bytes"] == build.merge.stats.saved_bytes
        assert "merge" in summary["timings"]

    def test_byte_identity_across_engines_and_groups(self, small_app, monkeypatch):
        """Merging over outlined code mined by the suffix array or by
        the Ukkonen reference (patched in; ``jobs=1`` keeps the groups
        in this process) yields the same image."""
        images = set()
        for reference in (False, True):
            if reference:
                monkeypatch.setattr("repro.core.outline.SuffixArrayMiner", UkkonenMiner)
            for groups in (1, 4):
                config = CalibroConfig(
                    cto_enabled=True, ltbo_enabled=True, merging=True,
                    parallel_groups=groups, jobs=1, name="merge-id",
                )
                images.add(
                    (groups, build_app(small_app.dexfile, config).oat.to_bytes())
                )
        # One image per group width (partitioning changes outlining),
        # but never one per index.
        assert len(images) == 2
