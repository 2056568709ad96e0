"""End-to-end trace coverage: the phase spans must account for the build.

If the phase tree said "compile 54%, outline 42%, link 4%" but those
summed to half the real wall time, every percentage in ``calibro
trace`` would be a lie.  This pins the accounting: the top-level phase
spans cover at least 95% of the root span, and the root span covers at
least 95% of the externally observed wall time.  It also pins where the
PlOpti group spans come from: each group is timed where it runs, on
both executor paths, and a group served from the cache gets a counter,
not a span.
"""

from __future__ import annotations

import os
import time

import pytest

from repro import observability as obs
from repro.core import CalibroConfig, build_app
from repro.service import BuildService
from repro.workloads import app_spec, generate_app

_STAGES = {"ltbo.group.tree_build", "ltbo.group.select", "ltbo.group.rewrite"}


@pytest.fixture(scope="module")
def dexfile():
    return generate_app(app_spec("Meituan", 0.3)).dexfile


@pytest.fixture(params=["in_process", "dispatched"])
def executor_path(request, monkeypatch):
    """The group executor path a PlOpti(2) build takes, forced whatever
    the host's CPU count: one in-process chunk (``jobs=1``), or two
    chunks dispatched to child processes (as in
    ``tests/core/test_multiround.py::test_process_pool_path``)."""
    if request.param == "in_process":
        yield request.param, CalibroConfig.cto_ltbo_plopti(2, jobs=1)
        return
    import repro.suffixtree.parallel as par

    monkeypatch.setattr(par, "available_parallelism", lambda: 4)
    executor = par.GroupExecutor(2)
    monkeypatch.setattr(par, "_SHARED", executor)
    with executor:
        yield request.param, CalibroConfig.cto_ltbo_plopti(2)
    assert executor.stats.dispatches >= 2


def test_build_trace_phases_cover_wall_time(dexfile, executor_path):
    path, config = executor_path
    config = config.with_merging()
    build_app(dexfile, config)  # warm caches so timing reflects steady state

    with obs.tracing():
        wall_start = time.perf_counter()
        build = build_app(dexfile, config)
        wall = time.perf_counter() - wall_start

    trace = build.trace
    assert trace is not None
    root = trace.find("build")
    assert root is not None

    # The root span vs the stopwatch around the call.
    assert root.duration >= 0.95 * wall

    # The four phases vs the root: dex2oat + ltbo + merge + link leave
    # at most 5% of the build unattributed.
    names = ("build.dex2oat", "build.ltbo", "build.merge", "build.link")
    phases = [trace.find(n) for n in names]
    assert all(p is not None for p in phases)
    assert sum(p.duration for p in phases) >= 0.95 * root.duration

    # The structured trace and the legacy timings dict agree exactly —
    # they are the same spans.
    assert build.timings["compile"] == phases[0].duration
    assert build.timings["ltbo"] == phases[1].duration
    assert build.timings["merge"] == phases[2].duration
    assert build.timings["link"] == phases[3].duration
    assert build.timings["total"] == root.duration

    # Each PlOpti group opened its own spans where it ran: both
    # partitions sit in the outline subtree (under the executor's task
    # spans), each with its three-stage breakdown and the symbol
    # mapping nested inside the index build.
    outline = trace.find("ltbo.outline")
    groups = [s for s in outline.walk() if s.name == "ltbo.group"]
    assert len(groups) == 2
    assert {g.attrs["prefix"] for g in groups} == {
        "MethodOutliner$g0",
        "MethodOutliner$g1",
    }
    for group in groups:
        assert {c.name for c in group.children} == _STAGES
        tree_build = next(c for c in group.children if c.name == "ltbo.group.tree_build")
        assert "ltbo.group.map" in {c.name for c in tree_build.children}
        if path == "dispatched":
            assert group.pid not in (0, os.getpid())
    assert trace.histograms["ltbo.group.seconds"].count == 2

    # Counters made it into the trace, and the headline ones are sane.
    assert trace.counters["dex2oat.methods"] > 0
    assert trace.counters["plopti.partitions"] == 2
    assert trace.counters["ltbo.bytes_saved"] > 0
    assert "ltbo.cached_groups" not in trace.counters


def test_cached_groups_get_a_counter_not_spans(dexfile):
    """A group served from the outline cache ran nowhere in this build:
    it gets no span, only the ``ltbo.cached_groups`` counter."""
    config = CalibroConfig.cto_ltbo_plopti(2, jobs=1)
    with BuildService() as service, obs.tracing():
        service.submit(dexfile, config)
        report = service.submit(dexfile, config)
    trace = report.build.trace
    assert report.cached_groups == 2
    assert trace.find("ltbo.outline") is not None
    assert trace.find("ltbo.group") is None
    assert trace.counters["ltbo.cached_groups"] == 2


def test_phase_timings_without_observability(dexfile):
    """With observability off, the build-local tracer is never
    installed, yet the phase spans opened on it still time every pass."""
    was_enabled = obs.enabled()
    obs.set_disabled(True)
    try:
        build = build_app(dexfile, CalibroConfig.cto_ltbo_plopti(2, jobs=1).with_merging())
    finally:
        obs.set_disabled(not was_enabled)
    assert build.trace is None
    assert build.timings["ltbo"] > 0
    assert build.timings["merge"] > 0
