"""One disk cache directory shared across builds and services.

The invariant is byte identity: builds that read and write a disk
cache must produce exactly the OAT image a plain ``build_app`` call
produces — across the paper configurations, shard widths, and on both
cold and warm caches.  On top of that the suite pins the sharing
itself: a *fresh* service on a directory another service populated
hits the supervisor's disk lookup (cross-tenant reuse: the same
candidates under the same symbol prefix key the same chunk).
"""

from __future__ import annotations

import pytest

from repro.core.pipeline import CalibroConfig, build_app
from repro.service import BuildService, ServiceConfig
from repro.workloads import app_spec, generate_app


@pytest.fixture(scope="module")
def dexfile():
    return generate_app(app_spec("Wechat", scale=0.05)).dexfile


def _configs(dexfile):
    profile = {m.name: 10 for m in dexfile.all_methods()[:8]}
    return [
        CalibroConfig.cto(),
        CalibroConfig.cto_ltbo(),
        CalibroConfig.cto_ltbo_plopti(groups=4),
        CalibroConfig.full(profile, groups=4),
    ]


def test_shared_builds_byte_identical_across_matrix(tmp_path, dexfile):
    """Every paper config × shard width {1, 4}, cold and warm on a disk
    cache, against the plain ``build_app`` reference — one wrong byte
    anywhere in the cache layer fails here."""
    for index, config in enumerate(_configs(dexfile)):
        reference = build_app(dexfile, config).oat.to_bytes()
        for shards in (1, 4):
            service_config = ServiceConfig(
                cache_dir=tmp_path / f"{index}-{shards}", shards=shards
            )
            with BuildService(service_config) as service:
                cold = service.submit(dexfile, config).build.oat.to_bytes()
                warm = service.submit(dexfile, config).build.oat.to_bytes()
            label = f"{config.name}/shards={shards}"
            assert cold == reference, f"cold mismatch: {label}"
            assert warm == reference, f"warm mismatch: {label}"


def test_warm_cross_service_build_is_byte_identical(tmp_path, dexfile):
    """Tenant B's *fresh* service (cold memory, cold graph) on tenant
    A's populated directory must byte-match — and must actually hit."""
    config = CalibroConfig.cto_ltbo_plopti(groups=4)
    reference = build_app(dexfile, config).oat.to_bytes()
    with BuildService(ServiceConfig(cache_dir=tmp_path, shards=2)) as tenant_a:
        assert tenant_a.submit(dexfile, config).build.oat.to_bytes() == reference
    with BuildService(ServiceConfig(cache_dir=tmp_path, shards=2)) as tenant_b:
        report = tenant_b.submit(dexfile, config)
        assert report.build.oat.to_bytes() == reference
        stats = tenant_b.stats()
    # The supervisor's disk pre-lookup served tenant A's entries.
    assert stats["cache"]["hits"] >= 4
