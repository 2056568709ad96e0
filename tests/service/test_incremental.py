"""Incremental delta builds: the byte-identity invariant and the
rebuild model.

The hard guarantee under test: ``BuildService(ServiceConfig(incremental=True))``
produces an OAT image **bit-identical** to a from-scratch
``build_app`` after *any* sequence of method edits, additions and
deletions — across the five configs and shard widths 1 and 4.  The
delta accounting (``GraphDelta``) must match the documented
invalidation rules, and a damaged or foreign slot record or cache entry
must fall back to rebuilding (never mis-build).
"""

from __future__ import annotations

import os

import pytest

from repro.core import CalibroConfig, build_app
from repro.dex.method import DexMethod
from repro.service import BuildService, FaultPlan, ServiceConfig, armed
from repro.service.graph import BuildGraph, method_node_key
from repro.workloads import diff_stream

CONFIGS = {
    "baseline": CalibroConfig.baseline,
    "CTO": CalibroConfig.cto,
    "CTO+LTBO": CalibroConfig.cto_ltbo,
    "CTO+LTBO+PlOpti": lambda: CalibroConfig.cto_ltbo_plopti(groups=4),
    "CTO+LTBO+PlOpti+Merge": lambda: CalibroConfig.cto_ltbo_plopti(
        groups=4
    ).with_merging(),
}


def _assert_stream_identity(dexfile, config, service, *, steps=3, seed=11):
    """Drive a mutation stream through ``service`` and compare every
    delta build against a from-scratch reference, byte for byte."""
    versions = [(dexfile, None)] + list(
        diff_stream(dexfile, steps=steps, seed=seed)
    )
    for version, mutation in versions:
        reference = build_app(version, config)
        report = service.submit(version, config, label="stream")
        context = f"{config.name} after {mutation}"
        assert report.build.oat.to_bytes() == reference.oat.to_bytes(), context
        assert report.graph is not None, context
    return report


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
def test_mutation_stream_byte_identity_all_configs(tmp_path, small_app, config_name):
    config = CONFIGS[config_name]()
    with BuildService(ServiceConfig(cache_dir=tmp_path, incremental=True)) as svc:
        _assert_stream_identity(small_app.dexfile, config, svc)


@pytest.mark.parametrize("shards", [1, 4])
def test_mutation_stream_byte_identity_shards(tmp_path, small_app, shards):
    config = CalibroConfig.cto_ltbo_plopti(groups=4)
    with BuildService(ServiceConfig(cache_dir=tmp_path, incremental=True, shards=shards)) as svc:
        _assert_stream_identity(small_app.dexfile, config, svc, steps=3)


def test_edit_invalidates_one_method_and_one_group(tmp_path, small_app):
    """The documented invalidation rule: partitioning is positional, so
    a pure edit re-keys exactly its own method node and its own group
    node; everything else splices."""
    config = CalibroConfig.cto_ltbo_plopti(groups=4)
    edited, _ = next(iter(diff_stream(small_app.dexfile, steps=1, seed=3,
                                      kinds=("edit",))))
    with BuildService(ServiceConfig(cache_dir=tmp_path, incremental=True)) as svc:
        first = svc.submit(small_app.dexfile, config, label="app")
        assert first.graph.full_rebuild
        assert first.graph.nodes_reused == 0
        delta = svc.submit(edited, config, label="app").graph
    assert not delta.full_rebuild
    assert delta.methods_rebuilt == 1
    assert delta.groups_rebuilt == 1
    assert delta.methods_reused == delta.methods_total - 1
    assert delta.groups_reused == delta.groups_total - 1


def test_add_and_delete_reshuffle_every_group(tmp_path, small_app):
    """Changing the candidate count reshuffles all partitions: group
    nodes all rebuild, while untouched method nodes still splice."""
    config = CalibroConfig.cto_ltbo_plopti(groups=4)
    added, _ = next(iter(diff_stream(small_app.dexfile, steps=1, seed=5,
                                     kinds=("add",))))
    with BuildService(ServiceConfig(cache_dir=tmp_path, incremental=True)) as svc:
        svc.submit(small_app.dexfile, config, label="app")
        delta = svc.submit(added, config, label="app").graph
    assert delta.methods_rebuilt == 1  # only the new method compiles
    assert delta.groups_reused == 0
    assert delta.groups_rebuilt == delta.groups_total


def test_unchanged_resubmit_reuses_every_node(tmp_path, small_app):
    config = CalibroConfig.cto_ltbo_plopti(groups=4)
    with BuildService(ServiceConfig(cache_dir=tmp_path, incremental=True)) as svc:
        svc.submit(small_app.dexfile, config, label="app")
        report = svc.submit(small_app.dexfile, config, label="app")
    delta = report.graph
    assert delta.nodes_rebuilt == 0
    assert delta.nodes_reused == delta.nodes_total > 0
    assert delta.nodes_added == delta.nodes_removed == 0
    assert report.compile_cached
    assert report.summary()["graph"]["nodes_rebuilt"] == 0


def test_inlining_config_falls_back_to_whole_dex_node(tmp_path, small_app):
    """Per-method reuse is unsound under cross-method inlining, so an
    inlining config compiles through one all-or-nothing dex node."""
    from dataclasses import replace as dc_replace

    config = dc_replace(CalibroConfig.cto_ltbo(), inlining=True)
    reference = build_app(small_app.dexfile, config)
    with BuildService(ServiceConfig(cache_dir=tmp_path, incremental=True)) as svc:
        cold = svc.submit(small_app.dexfile, config, label="app")
        warm = svc.submit(small_app.dexfile, config, label="app")
    assert cold.build.oat.to_bytes() == reference.oat.to_bytes()
    assert warm.build.oat.to_bytes() == reference.oat.to_bytes()
    assert cold.graph.methods_rebuilt == cold.graph.methods_total
    assert warm.graph.methods_reused == warm.graph.methods_total


def test_merge_node_splices_and_rebuilds(tmp_path, small_app):
    """The merge node is one more graph node: a no-change resubmit
    splices its cached plan, any byte movement downstream of outlining
    re-runs discovery."""
    config = CalibroConfig.cto_ltbo_plopti(groups=4).with_merging()
    edited, _ = next(iter(diff_stream(small_app.dexfile, steps=1, seed=3,
                                      kinds=("edit",))))
    with BuildService(ServiceConfig(cache_dir=tmp_path, incremental=True)) as svc:
        cold = svc.submit(small_app.dexfile, config, label="app")
        warm = svc.submit(small_app.dexfile, config, label="app")
        delta = svc.submit(edited, config, label="app")
    assert cold.graph.merge_total == 1 and cold.graph.merge_rebuilt == 1
    assert warm.graph.merge_total == 1 and warm.graph.merge_reused == 1
    assert warm.graph.nodes_rebuilt == 0
    assert delta.graph.merge_rebuilt == 1  # post-outlining bytes moved


def test_non_merging_configs_have_no_merge_node(tmp_path, small_app):
    config = CalibroConfig.cto_ltbo_plopti(groups=4)
    with BuildService(ServiceConfig(cache_dir=tmp_path, incremental=True)) as svc:
        report = svc.submit(small_app.dexfile, config, label="app")
    assert report.graph.merge_total == 0


def test_incremental_persists_across_service_instances(tmp_path, small_app):
    """Graph state and artifacts live next to the cache: a fresh
    service on the same directory delta-builds immediately."""
    config = CalibroConfig.cto_ltbo_plopti(groups=4)
    with BuildService(ServiceConfig(cache_dir=tmp_path, incremental=True)) as first:
        first.submit(small_app.dexfile, config, label="app")
    with BuildService(ServiceConfig(cache_dir=tmp_path, incremental=True)) as second:
        report = second.submit(small_app.dexfile, config, label="app")
    assert not report.graph.full_rebuild
    assert report.graph.nodes_rebuilt == 0


def test_memory_only_incremental_service_works(small_app):
    config = CalibroConfig.cto_ltbo()
    reference = build_app(small_app.dexfile, config)
    with BuildService(ServiceConfig(incremental=True)) as svc:  # no cache_dir
        cold = svc.submit(small_app.dexfile, config, label="app")
        warm = svc.submit(small_app.dexfile, config, label="app")
    assert cold.build.oat.to_bytes() == reference.oat.to_bytes()
    assert warm.build.oat.to_bytes() == reference.oat.to_bytes()
    assert warm.graph.nodes_rebuilt == 0


# -- failure semantics --------------------------------------------------------


def test_corrupted_cache_entries_rebuild_never_misbuild(tmp_path, small_app):
    """Torn/garbage artifact files: every affected node silently
    recomputes — output bytes stay identical to scratch."""
    config = CalibroConfig.cto_ltbo_plopti(groups=4)
    reference = build_app(small_app.dexfile, config)
    with BuildService(ServiceConfig(cache_dir=tmp_path, incremental=True)) as svc:
        svc.submit(small_app.dexfile, config, label="app")
    entries = sorted(tmp_path.glob("??/*.bin"))
    assert entries, "expected on-disk cache entries"
    for i, entry in enumerate(entries):
        if i % 2 == 0:
            entry.write_bytes(b"\x80garbage not a pickle")
        else:
            entry.write_bytes(entry.read_bytes()[: max(1, entry.stat().st_size // 3)])
    # Fresh service: the poisoned disk tier is the only source.
    with BuildService(ServiceConfig(cache_dir=tmp_path, incremental=True)) as svc:
        report = svc.submit(small_app.dexfile, config, label="app")
    assert report.build.oat.to_bytes() == reference.oat.to_bytes()
    assert report.graph.nodes_rebuilt > 0


def _garbage_bytes(svc, key):
    svc.cache._entry_path(key).write_bytes(b"\x80garbage not a pickle")


def _bare_artifact_bundle(svc, key):
    """What older builds stored under the record's key: the method
    artifacts alone, without the other node keys."""
    artifacts = svc.cache.lookup_object(key)[0]
    svc.cache.store_object(key, artifacts)


@pytest.mark.parametrize("damage", [_garbage_bytes, _bare_artifact_bundle])
def test_damaged_or_foreign_slot_record_is_a_full_rebuild(tmp_path, small_app, damage):
    """A slot record the cache cannot read, or one of another shape,
    reads as absent: a full rebuild with scratch bytes, after which the
    slot has a record again."""
    config = CalibroConfig.cto_ltbo_plopti(groups=4).with_merging()
    reference = build_app(small_app.dexfile, config)
    key = BuildGraph.record_key("app", config)
    with BuildService(ServiceConfig(cache_dir=tmp_path, incremental=True)) as svc:
        svc.submit(small_app.dexfile, config, label="app")
        damage(svc, key)
    # Fresh service: the damaged disk tier is the only source.
    with BuildService(ServiceConfig(cache_dir=tmp_path, incremental=True)) as svc:
        healed = svc.submit(small_app.dexfile, config, label="app")
        again = svc.submit(small_app.dexfile, config, label="app")
    assert healed.build.oat.to_bytes() == reference.oat.to_bytes()
    assert healed.graph.full_rebuild
    assert healed.graph.methods_rebuilt == healed.graph.methods_total
    assert not again.graph.full_rebuild
    assert again.graph.nodes_rebuilt == 0


def test_incremental_service_keeps_nothing_but_cache_entries(tmp_path, small_app):
    config = CalibroConfig.cto_ltbo_plopti(groups=4)
    edited, _ = next(iter(diff_stream(small_app.dexfile, steps=1, seed=3,
                                      kinds=("edit",))))
    with BuildService(ServiceConfig(cache_dir=tmp_path, incremental=True)) as svc:
        svc.submit(small_app.dexfile, config, label="app")
        svc.submit(edited, config, label="app")
    assert not (tmp_path / "graph").exists()
    paths = list(tmp_path.rglob("*"))
    entries = [p for p in paths if p.is_file()]
    assert entries and sorted(entries) == sorted(tmp_path.glob("??/*.bin"))
    assert all(len(p.name) == 2 for p in paths if p.is_dir())


def test_unchanged_resubmit_publishes_no_file(tmp_path, small_app, monkeypatch):
    config = CalibroConfig.cto_ltbo_plopti(groups=4).with_merging()
    with BuildService(ServiceConfig(cache_dir=tmp_path, incremental=True)) as svc:
        svc.submit(small_app.dexfile, config, label="app")
        published = []
        real_replace = os.replace

        def counting_replace(src, dst):
            published.append(dst)
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", counting_replace)
        report = svc.submit(small_app.dexfile, config, label="app")
    assert report.graph.nodes_rebuilt == 0
    assert published == []


def test_incremental_delta_survives_injected_pool_crash(tmp_path, small_app):
    """A worker crash mid-delta walks the pool's retry ladder; the
    delta build still lands byte-identical."""
    config = CalibroConfig.cto_ltbo_plopti(groups=4)
    edited, _ = next(iter(diff_stream(small_app.dexfile, steps=1, seed=9,
                                      kinds=("edit",))))
    reference = build_app(edited, config)
    with BuildService(ServiceConfig(cache_dir=tmp_path, incremental=True, max_workers=2)) as svc:
        svc.submit(small_app.dexfile, config, label="app")
        with armed(FaultPlan(seed=1, crash=1.0)):
            report = svc.submit(edited, config, label="app")
    assert report.build.oat.to_bytes() == reference.oat.to_bytes()


# -- the node-key model -------------------------------------------------------


def test_method_node_key_tracks_content_not_position():
    from repro.dex import bytecode as bc

    method = DexMethod(
        name="LApp;->m", num_registers=4, num_inputs=2,
        code=[bc.Const(dst=2, value=7), bc.Return(src=2)],
    )
    k0 = method_node_key(method, cto=True, method_id=0)
    # Position-independent for non-natives: insertions above don't move it.
    assert method_node_key(method, cto=True, method_id=9) == k0
    # Flag- and content-sensitive.
    assert method_node_key(method, cto=False, method_id=0) != k0
    edited = DexMethod(
        name="LApp;->m", num_registers=4, num_inputs=2,
        code=[bc.Const(dst=2, value=8), bc.Return(src=2)],
    )
    assert method_node_key(edited, cto=True, method_id=0) != k0


def test_native_method_node_key_includes_method_id():
    native = DexMethod(name="LApp;->n", num_registers=2, num_inputs=2,
                       is_native=True)
    assert (
        method_node_key(native, cto=True, method_id=0)
        != method_node_key(native, cto=True, method_id=1)
    )
