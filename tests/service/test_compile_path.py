"""One compile path: every build compiles through the same steps.

A delta build verifies the whole file with the scratch build's
verifier, so a bad input fails with the same message on both paths.
``build_app`` runs every compile step inside ``build.dex2oat``, so that
span and ``timings["compile"]`` cover the compile work of plain, batch,
incremental and inlining builds alike, and its ``cached`` attribute
says whether this build compiled any method.
"""

from __future__ import annotations

import copy
from dataclasses import replace

import pytest

from repro import observability as obs
from repro.core import CalibroConfig, build_app
from repro.dex import bytecode as bc
from repro.dex.method import DexMethod
from repro.dex.verifier import VerificationError
from repro.service import BuildService, ServiceConfig
from repro.workloads import diff_stream


def _delete_callee(dexfile):
    """Drop a method that another method still invokes."""
    invoked = {name for m in dexfile.all_methods() for name in m.invoked_methods}
    for cls in dexfile.classes:
        for method in cls.methods:
            if method.name in invoked:
                cls.methods.remove(method)
                return


def _replace_first(dexfile, match, make):
    """Replace the first instruction ``match`` accepts with
    ``make(method, instr)``."""
    for method in dexfile.all_methods():
        for index, instr in enumerate(method.code):
            if match(instr):
                method.code[index] = make(method, instr)
                return
    raise AssertionError("the app has no instruction to edit")


def _is_const(instr):
    return isinstance(instr, bc.Const)


def _empty_string_table(dexfile):
    """Load string 0 in one method, then empty the table."""
    _replace_first(
        dexfile, _is_const, lambda m, i: bc.ConstString(dst=i.dst, string_idx=0)
    )
    dexfile.string_table = []


def _use_void_result(dexfile):
    """Point an invoke whose result is used at a new void method."""
    cls = dexfile.classes[0]
    void = DexMethod(
        name=f"{cls.name}->voidHelper",
        num_registers=1,
        num_inputs=0,
        code=[bc.ReturnVoid()],
        returns_value=False,
    )
    cls.methods.append(void)
    _replace_first(
        dexfile,
        lambda i: isinstance(i, bc.InvokeStatic) and i.dst is not None,
        lambda m, i: replace(i, method=void.name),
    )


def _register_out_of_range(dexfile):
    """Edit one method so that a const writes past its register file."""
    _replace_first(dexfile, _is_const, lambda m, i: replace(i, dst=m.num_registers))


BAD_EDITS = {
    "deleted_callee": _delete_callee,
    "empty_string_table": _empty_string_table,
    "void_result_use": _use_void_result,
    "register_out_of_range": _register_out_of_range,
}


@pytest.mark.parametrize("edit", sorted(BAD_EDITS))
def test_delta_build_fails_verification_like_a_scratch_build(tmp_path, small_app, edit):
    bad = copy.deepcopy(small_app.dexfile)
    BAD_EDITS[edit](bad)
    config = CalibroConfig.cto_ltbo()
    with pytest.raises(VerificationError) as scratch:
        build_app(bad, config)
    with BuildService(ServiceConfig(cache_dir=tmp_path, incremental=True)) as service:
        service.submit(small_app.dexfile, config, label="app")
        with pytest.raises(VerificationError) as delta:
            service.submit(bad, config, label="app")
    assert str(delta.value) == str(scratch.value)


def _traced_submit(service, dexfile, config):
    with obs.tracing():
        report = service.submit(dexfile, config, label="app")
    span = report.build.trace.find("build.dex2oat")
    assert report.build.timings["compile"] == span.duration
    return report, span


def test_incremental_compile_work_is_timed_in_build_dex2oat(tmp_path, small_app):
    config = CalibroConfig.cto_ltbo_plopti(groups=4)
    with BuildService(ServiceConfig(cache_dir=tmp_path, incremental=True)) as service:
        cold, cold_span = _traced_submit(service, small_app.dexfile, config)
        unchanged, unchanged_span = _traced_submit(service, small_app.dexfile, config)
    assert cold_span.duration > 0
    assert cold_span.attrs["cached"] is False
    rebuilt = cold.graph.methods_rebuilt
    assert rebuilt == cold.graph.methods_total > 0
    assert cold.build.trace.histograms["compile.method_seconds"].count == rebuilt
    assert cold.build.methods_compiled == rebuilt
    assert unchanged.graph.methods_rebuilt == 0
    assert unchanged_span.attrs["cached"] is True
    assert "compile.method_seconds" not in unchanged.build.trace.histograms


def test_inlining_fallback_compile_work_is_timed_in_build_dex2oat(tmp_path, small_app):
    config = replace(CalibroConfig.cto_ltbo(), inlining=True)
    with BuildService(ServiceConfig(cache_dir=tmp_path, incremental=True)) as service:
        cold, cold_span = _traced_submit(service, small_app.dexfile, config)
        warm, warm_span = _traced_submit(service, small_app.dexfile, config)
    assert cold_span.attrs["cached"] is False
    assert cold_span.find("dex2oat.codegen") is not None
    assert cold.build.trace.counters["service.compile_cache.misses"] == 1
    assert warm_span.attrs["cached"] is True
    assert warm.build.trace.counters["service.compile_cache.hits"] == 1


def test_batch_compile_cache_is_timed_in_build_dex2oat(small_app):
    config = CalibroConfig.cto_ltbo()
    with BuildService() as service:
        cold, cold_span = _traced_submit(service, small_app.dexfile, config)
        warm, warm_span = _traced_submit(service, small_app.dexfile, config)
    assert not cold.compile_cached and cold_span.attrs["cached"] is False
    assert cold_span.find("dex2oat.codegen") is not None
    assert warm.compile_cached and warm_span.attrs["cached"] is True
    assert warm_span.find("dex2oat.codegen") is None
    assert warm.build.oat.to_bytes() == cold.build.oat.to_bytes()


def _compile_report(trace):
    """The ``cto.*``/``dex2oat.*`` counters and ``dex2oat.*`` span names
    of one build's trace."""
    counters = {
        name: value for name, value in trace.counters.items()
        if name.startswith(("cto.", "dex2oat."))
    }
    spans = {span.name for span in trace.walk() if span.name.startswith("dex2oat.")}
    return counters, spans


def test_incremental_compile_reports_what_dex2oat_reports(tmp_path, small_app):
    """A delta build counts the assembled result, spliced method nodes
    included, so ``calibro compare`` sees no change between it and a
    scratch build of the same input."""
    config = CalibroConfig.cto_ltbo_plopti(groups=4)
    edited, _ = next(iter(diff_stream(small_app.dexfile, steps=1, seed=3,
                                      kinds=("edit",))))
    with BuildService(ServiceConfig(cache_dir=tmp_path, incremental=True)) as service:
        cold, _ = _traced_submit(service, small_app.dexfile, config)
        delta, _ = _traced_submit(service, edited, config)
    assert delta.graph.methods_reused == delta.graph.methods_total - 1
    for report, dexfile in ((cold, small_app.dexfile), (delta, edited)):
        counters, spans = _compile_report(report.build.trace)
        assert counters["cto.sites"] > 0 and counters["dex2oat.methods"] > 0
        assert (counters, spans) == _compile_report(build_app(dexfile, config).trace)
