"""dex2oat at every width.

Above one job a library build's compile goes out in round-robin method
chunks to the process-wide group executor, each chunk against its own
thunk cache; with ``jobs`` unset, only once that executor's workers
run.  The bytes, the side tables and the counts must be what
the serial compile produces.  ``available_parallelism`` is patched to
4 and a local executor stands in for the process-wide one, so widths 2
and 3 dispatch whatever the host's CPU count.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace

import pytest

import repro.suffixtree.parallel as par
from repro import observability as obs
from repro.compiler.driver import dex2oat
from repro.core import CalibroConfig, build_app
from repro.service import BuildService, ServiceConfig
from repro.workloads import APP_NAMES, app_spec, generate_app

WIDTHS = (2, 3)

CONFIGS = {
    "baseline": CalibroConfig.baseline(),
    "cto": CalibroConfig.cto(),
    "cto_ltbo": CalibroConfig.cto_ltbo(),
    "cto_ltbo_plopti8_merge": CalibroConfig.cto_ltbo_plopti(8).with_merging(),
}


@pytest.fixture
def executor(monkeypatch):
    monkeypatch.setattr(par, "available_parallelism", lambda: 4)
    local = par.GroupExecutor(2)
    monkeypatch.setattr(par, "_SHARED", local)
    with local:
        yield local


@pytest.fixture(scope="module")
def paper_dexfiles():
    return {name: generate_app(app_spec(name, scale=0.1)).dexfile for name in APP_NAMES}


def _record(method):
    return (
        method.name,
        method.code,
        method.relocations,
        method.metadata,
        method.stackmaps,
        method.callees,
        method.frame_size,
    )


def _pool_spans(span):
    return [s.name for s in span.walk() if s.name.startswith("service.pool.")]


def _digest(build) -> str:
    return hashlib.sha256(build.oat.to_bytes()).hexdigest()


@pytest.mark.parametrize("cto", [False, True], ids=["plain", "cto"])
@pytest.mark.parametrize("app", [*APP_NAMES, "featured"])
def test_compile_is_identical_at_every_width(
    app, cto, paper_dexfiles, featured_app, executor
):
    dexfile = featured_app.dexfile if app == "featured" else paper_dexfiles[app]
    serial = dex2oat(dexfile, cto=cto, jobs=1)
    assert executor.stats.dispatches == 0
    for width in WIDTHS:
        before = executor.stats.dispatches
        wide = dex2oat(dexfile, cto=cto, jobs=width)
        assert executor.stats.dispatches - before == width
        # Methods in table order, then the thunks rendered once.
        assert [_record(m) for m in wide.methods] == [_record(m) for m in serial.methods]
        assert wide.ir_instructions_before == serial.ir_instructions_before
        assert wide.ir_instructions_after == serial.ir_instructions_after
        if cto:
            assert wide.cto.hits == serial.cto.hits
        else:
            assert wide.cto is None
    assert executor.stats.serial_fallbacks == 0


@pytest.mark.parametrize("name", CONFIGS)
def test_build_bytes_are_identical_at_every_width(name, featured_app, executor):
    config = CONFIGS[name]
    digests = {
        jobs: _digest(build_app(featured_app.dexfile, replace(config, jobs=jobs)))
        for jobs in (1, *WIDTHS)
    }
    assert len(set(digests.values())) == 1, digests


def test_dispatched_compile_adopts_the_chunks_traces(small_app, executor):
    serial = build_app(small_app.dexfile, replace(CalibroConfig.cto(), jobs=1))
    wide = build_app(small_app.dexfile, replace(CalibroConfig.cto(), jobs=2))
    codegen = wide.trace.find("dex2oat.codegen")
    assert [s.name for s in codegen.children] == ["service.pool.map"]
    tasks = codegen.children[0].children
    assert [s.name for s in tasks] == ["service.pool.task"] * 2
    assert all(task.pid not in (0, None) for task in tasks)
    assert wide.trace.counters["service.pool.tasks"] == 2
    assert wide.trace.counters["service.pool.dispatches"] == 2
    assert wide.trace.find("dex2oat.hgraph") is None
    method_seconds = "compile.method_seconds"
    assert (
        wide.trace.histograms[method_seconds].count
        == serial.trace.histograms[method_seconds].count
        == len(small_app.dexfile.all_methods())
    )
    for name, value in serial.trace.counters.items():
        if name.startswith(("codegen.", "cto.", "dex2oat.")):
            assert wide.trace.counters[name] == value, name


def test_serial_compile_paths_open_no_pool_spans(tmp_path, small_app, executor):
    """A ``jobs=1`` build, the batch service's cached whole-dex compile
    and the incremental graph's method nodes compile in-process."""
    config = replace(CalibroConfig.cto_ltbo_plopti(4), jobs=1)
    plain = build_app(small_app.dexfile, config)
    assert _pool_spans(plain.trace.find("build.dex2oat")) == []
    assert plain.trace.find("dex2oat.hgraph") is None
    for incremental in (False, True):
        service_config = ServiceConfig(
            cache_dir=tmp_path / str(incremental), incremental=incremental
        )
        with BuildService(service_config) as service, obs.tracing():
            report = service.submit(small_app.dexfile, config, label="app")
        compile_span = report.build.trace.find("build.dex2oat")
        assert compile_span.attrs["cached"] is False
        assert _pool_spans(compile_span) == []
    assert executor.stats.dispatches == 0


def test_default_compile_fans_out_only_onto_running_workers(
    monkeypatch, small_app, executor
):
    """A default-``jobs`` build compiles in-process until the
    process-wide executor's workers run, here started by the first
    build's PlOpti groups; the next build compiles at the usable CPU
    count.  A one-shot build without PlOpti starts no workers."""
    config = CalibroConfig.cto_ltbo_plopti(4)
    first = build_app(small_app.dexfile, config)
    assert _pool_spans(first.trace.find("build.dex2oat")) == []
    assert executor.running
    second = build_app(small_app.dexfile, config)
    codegen = second.trace.find("dex2oat.codegen")
    assert [s.name for s in codegen.children] == ["service.pool.map"]
    assert len(codegen.children[0].children) == 4
    assert _digest(second) == _digest(first)

    monkeypatch.setattr(par, "_SHARED", None)
    for config in (CalibroConfig.baseline(), CalibroConfig.cto_ltbo()):
        build = build_app(small_app.dexfile, config)
        assert _pool_spans(build.trace.find("build.dex2oat")) == []
    assert not par.shared_executor_running()


def test_service_builds_never_make_the_process_wide_executor(
    monkeypatch, tmp_path, small_app
):
    monkeypatch.setattr(par, "available_parallelism", lambda: 4)
    monkeypatch.setattr(par, "_SHARED", None)
    config = CalibroConfig.cto_ltbo_plopti(8).with_merging()
    for incremental in (False, True):
        service_config = ServiceConfig(
            cache_dir=tmp_path / str(incremental), incremental=incremental
        )
        with BuildService(service_config) as service:
            service.submit(small_app.dexfile, config, label="app")
    assert par._SHARED is None


def test_inlining_compiles_in_process(small_app, executor):
    config = replace(CalibroConfig.cto(), inlining=True)
    serial = build_app(small_app.dexfile, replace(config, jobs=1))
    wide = build_app(small_app.dexfile, replace(config, jobs=3))
    assert executor.stats.dispatches == 0
    assert wide.trace.find("dex2oat.hgraph") is not None
    assert wide.trace.find("dex2oat.inline") is not None
    assert wide.dex2oat.inlined_sites == serial.dex2oat.inlined_sites > 0
    assert _digest(wide) == _digest(serial)
