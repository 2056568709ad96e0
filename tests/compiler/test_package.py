"""Compilation package serialisation and the staged pipeline."""

from __future__ import annotations

import pytest

from repro.compiler import CompilationPackage
from repro.core import CalibroConfig, build_app, compile_stage, link_stage, outline_stage
from repro.profiling import profile_app


@pytest.fixture(scope="module")
def package(small_app):
    return compile_stage(small_app.dexfile, cto=True)


def test_roundtrip_bytes(package):
    back = CompilationPackage.from_bytes(package.to_bytes())
    assert [m.name for m in back.methods] == [m.name for m in package.methods]
    assert [m.code for m in back.methods] == [m.code for m in package.methods]
    assert back.string_table == package.string_table
    assert back.cto_enabled == package.cto_enabled
    for a, b in zip(back.methods, package.methods):
        assert a.relocations == b.relocations
        assert a.frame_size == b.frame_size
        assert a.callees == b.callees
        if b.metadata is None:
            assert a.metadata is None
        else:
            assert a.metadata == b.metadata
        if b.stackmaps is None:
            assert a.stackmaps is None
        else:
            assert a.stackmaps.entries == b.stackmaps.entries


def test_bad_magic_rejected():
    with pytest.raises(ValueError, match="magic"):
        CompilationPackage.from_bytes(b"JUNKJUNK" + b"\x00" * 32)


def test_save_load(tmp_path, package):
    path = tmp_path / "app.pkg"
    package.save(str(path))
    back = CompilationPackage.load(str(path))
    assert back.text_size == package.text_size


def test_annotations_carry_provenance(package):
    assert "compile_seconds" in package.annotations
    # Return merging can add moves, so "after" is not strictly <= "before";
    # both counters must simply be present and positive.
    assert package.annotations["ir_instructions_before"] > 0
    assert package.annotations["ir_instructions_after"] > 0


@pytest.fixture(scope="module")
def hot_filter(small_app, baseline_build):
    report = profile_app(
        baseline_build.oat, small_app.dexfile, small_app.ui_script,
        native_handlers=small_app.native_handlers,
    )
    return report.hot_filter(0.80)


@pytest.mark.parametrize(
    "groups, hot, min_length, min_saved, seed",
    [
        (2, False, 2, 1, 0),
        (1, False, 2, 1, 0),
        (4, True, 2, 1, 3),
        (8, True, 3, 2, 5),
        (2, False, 4, 3, 1),
    ],
    ids=["groups2", "groups1", "groups4-hot", "groups8-hot-min3", "groups2-min4"],
)
def test_staged_equals_inprocess(
    small_app, package, hot_filter, groups, hot, min_length, min_saved, seed
):
    """compile→outline→link through packages must produce the identical
    image as the fused build_app pipeline, under every option
    ``outline_stage`` forwards to the config it builds."""
    hot_filter = hot_filter if hot else None
    outlined = outline_stage(
        package, groups=groups, hot_filter=hot_filter, min_length=min_length,
        min_saved=min_saved, seed=seed,
    )
    oat = link_stage(outlined)
    ref = build_app(
        small_app.dexfile,
        CalibroConfig(
            cto_enabled=True, ltbo_enabled=True, parallel_groups=groups,
            hot_filter=hot_filter, min_length=min_length, min_saved=min_saved,
            partition_seed=seed,
        ),
    )
    assert oat.text == ref.oat.text
    assert oat.data == ref.oat.data


def test_staged_roundtrip_through_disk(tmp_path, small_app, package):
    """Serialise between every stage — what the CLI actually does."""
    p1 = tmp_path / "a.pkg"
    package.save(str(p1))
    outlined = outline_stage(CompilationPackage.load(str(p1)), groups=1)
    p2 = tmp_path / "b.pkg"
    outlined.save(str(p2))
    oat = link_stage(CompilationPackage.load(str(p2)))
    ref = build_app(small_app.dexfile, CalibroConfig.cto_ltbo())
    assert oat.text == ref.oat.text


def test_outline_stage_annotations(package):
    outlined = outline_stage(package, groups=4)
    info = outlined.annotations["outline"]
    assert info["groups"] == 4
    assert info["outlined_functions"] > 0
    assert outlined.text_size < package.text_size
