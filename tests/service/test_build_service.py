"""BuildService determinism and caching semantics.

The load-bearing guarantee: a pooled + cached service build emits an
OAT image *bit-identical* to a serial, uncached ``build_app`` — across
a global tree, PlOpti partitions, and an HfOpti hot mask — whether the
result was computed cold or assembled from cache hits.
"""

from __future__ import annotations

import pytest

from repro.core import CalibroConfig, build_app
from repro.core.errors import ServiceError
from repro.core.hotfilter import HotFunctionFilter
from repro.service import BuildRequest, BuildService, ServiceConfig


def _hot_filter(dexfile) -> HotFunctionFilter:
    # A deterministic fake profile: every method's cycle count derives
    # from its name, so the 80% hot set is stable across runs.
    names = sorted(dexfile.method_names())
    profile = {name: 1000 + 137 * i for i, name in enumerate(names)}
    return HotFunctionFilter.from_profile(profile, coverage=0.80)


def _configs(dexfile):
    return [
        CalibroConfig.cto_ltbo(),                   # groups=1, global tree
        CalibroConfig.cto_ltbo_plopti(groups=4),    # PlOpti partitions
        CalibroConfig.cto_ltbo_plopti(groups=4).with_hot_filter(_hot_filter(dexfile)),
    ]


def test_cached_pooled_builds_are_bit_identical_to_serial(tmp_path, small_app):
    dexfile = small_app.dexfile
    for config in _configs(dexfile):
        reference = build_app(dexfile, config).oat
        with BuildService(ServiceConfig(cache_dir=tmp_path / config.name, max_workers=2)) as svc:
            cold = svc.submit(dexfile, config, label="cold")
            warm = svc.submit(dexfile, config, label="warm")
        assert cold.build.oat.text == reference.text, config.name
        assert warm.build.oat.text == reference.text, config.name
        assert cold.build.oat.to_bytes() == reference.to_bytes(), config.name
        assert warm.build.oat.to_bytes() == reference.to_bytes(), config.name


def test_warm_rebuild_hits_every_cache(tmp_path, small_app):
    config = CalibroConfig.cto_ltbo_plopti(groups=4)
    with BuildService(ServiceConfig(cache_dir=tmp_path, max_workers=1)) as svc:
        cold = svc.submit(small_app.dexfile, config)
        warm = svc.submit(small_app.dexfile, config)
    assert not cold.compile_cached and cold.cached_groups == 0
    assert warm.compile_cached
    assert warm.cached_groups == warm.total_groups == 4
    assert warm.build.summary()["cached_groups"] == 4


def test_cache_persists_across_service_instances(tmp_path, small_app):
    config = CalibroConfig.cto_ltbo_plopti(groups=2)
    with BuildService(ServiceConfig(cache_dir=tmp_path)) as first:
        first.submit(small_app.dexfile, config)
    with BuildService(ServiceConfig(cache_dir=tmp_path)) as second:
        rebuilt = second.submit(small_app.dexfile, config)
    assert rebuilt.compile_cached
    assert rebuilt.cached_groups == rebuilt.total_groups == 2
    assert second.cache.stats.disk_hits >= 3  # compile result + both groups


def test_batch_shares_the_cache_between_requests(small_app):
    config = CalibroConfig.cto_ltbo_plopti(groups=2)
    with BuildService() as svc:  # memory-only cache
        reports = svc.build_many([
            BuildRequest(small_app.dexfile, config, label="a"),
            BuildRequest(small_app.dexfile, config, label="b"),
        ])
    assert [r.label for r in reports] == ["a", "b"]
    assert reports[1].compile_cached and reports[1].cached_groups == 2
    assert svc.builds_completed == 2


def test_report_summary_extends_the_build_summary(small_app):
    with BuildService() as svc:
        report = svc.submit(small_app.dexfile, CalibroConfig.cto_ltbo(), label="x")
    summary = report.summary()
    from repro.core import SUMMARY_SCHEMA_VERSION

    assert summary["schema_version"] == SUMMARY_SCHEMA_VERSION
    assert summary["engine"] == "suffixtree"
    assert summary["label"] == "x"
    assert summary["compile_cached"] is False
    assert summary["total_groups"] == 1
    assert summary["seconds"] >= summary["build_seconds"] >= 0


def test_stats_document(small_app):
    with BuildService() as svc:
        svc.submit(small_app.dexfile, CalibroConfig.cto_ltbo())
        stats = svc.stats()
    assert stats["builds"] == 1
    assert stats["cache"]["stores"] >= 2  # compile result + the group
    assert set(stats["pool"]) == {
        "width", "tasks", "dispatches", "timeouts", "failures", "retries",
        "restarts", "serial_fallbacks", "shared_hits", "shared_lookups",
    }


def test_closed_service_rejects_builds(small_app):
    svc = BuildService()
    svc.close()
    with pytest.raises(ServiceError):
        svc.submit(small_app.dexfile)
