"""The DEX2OAT driver: verify → HGraph → opt passes → codegen (Fig. 5).

Every method is compiled independently (as in real dex2oat); the only
cross-method state is the CTO thunk cache, which is exactly the paper's
design — CTO works *during* per-method code generation against a shared
label cache, and the thunk bodies join the link set afterwards.
:func:`compile_method` is that per-method unit: ``dex2oat``'s codegen
loop runs it against the shared cache, and the incremental build graph
(:mod:`repro.service.graph`) runs it once per rebuilt method node
against the node's own cache.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro import observability as obs
from repro.compiler.codegen import compile_graph, compile_jni_stub
from repro.compiler.compiled import CompiledMethod
from repro.core.patterns import ThunkCache
from repro.dex.method import DexFile, DexMethod
from repro.dex.verifier import verify_dexfile
from repro.hgraph.builder import build_hgraph
from repro.hgraph.ir import HGraph
from repro.hgraph.passes import PassManager

__all__ = ["Dex2OatResult", "compile_method", "dex2oat"]


@dataclass
class Dex2OatResult:
    """Output of one dex2oat run (pre-linking)."""

    methods: list[CompiledMethod]
    cto: ThunkCache | None
    #: Seconds spent compiling (the "Baseline" component of Table 6).
    compile_seconds: float = 0.0
    ir_instructions_before: int = 0
    ir_instructions_after: int = 0
    inlined_sites: int = 0

    @property
    def text_size(self) -> int:
        return sum(m.size for m in self.methods)

    def method(self, name: str) -> CompiledMethod:
        for m in self.methods:
            if m.name == name:
                return m
        raise KeyError(name)


def dex2oat(
    dexfile: DexFile,
    *,
    cto: bool = False,
    inline: bool = False,
    pass_manager: PassManager | None = None,
    verify: bool = True,
) -> Dex2OatResult:
    """Compile a dex file to a set of relocatable method blobs.

    ``cto=True`` enables the compilation-time outlining of the three
    ART-specific patterns (paper Section 3.1).  ``inline=True`` runs the
    conservative small-method inliner before the per-method pipeline
    (the related-work interaction study; off by default, matching the
    paper's baseline configuration).
    """
    from repro.hgraph.passes.inlining import inline_small_methods

    start = time.perf_counter()
    if verify:
        with obs.span("dex2oat.verify"):
            verify_dexfile(dexfile)
    manager = pass_manager or PassManager()
    cache = ThunkCache() if cto else None

    methods = dexfile.all_methods()
    graphs: dict[str, HGraph] = {}
    with obs.span("dex2oat.hgraph"):
        for method in methods:
            if not method.is_native:
                graphs[method.name] = build_hgraph(method)
    inlined_sites = 0
    if inline:
        with obs.span("dex2oat.inline"):
            for graph in graphs.values():
                inlined_sites += inline_small_methods(graph, graphs.get)

    compiled: list[CompiledMethod] = []
    before = after = 0
    with obs.span("dex2oat.codegen"):
        for method_id, method in enumerate(methods):
            method_compiled, ir_before, ir_after = compile_method(
                method, method_id, cache, manager, graphs.get(method.name)
            )
            compiled.append(method_compiled)
            before += ir_before
            after += ir_after
    if cache is not None:
        with obs.span("dex2oat.thunks"):
            thunks = cache.compiled_thunks()
        compiled.extend(thunks)
        _flush_cto_counters(cache, thunks)
    obs.counter_add("dex2oat.methods", len(methods))
    obs.counter_add("dex2oat.native_stubs", sum(m.is_native for m in methods))
    obs.counter_add("dex2oat.ir_instructions_removed", before - after)
    obs.counter_add("dex2oat.inlined_sites", inlined_sites)
    return Dex2OatResult(
        methods=compiled,
        cto=cache,
        compile_seconds=time.perf_counter() - start,
        ir_instructions_before=before,
        ir_instructions_after=after,
        inlined_sites=inlined_sites,
    )


def compile_method(
    method: DexMethod,
    method_id: int,
    thunks: ThunkCache | None,
    manager: PassManager,
    graph: HGraph | None = None,
) -> tuple[CompiledMethod, int, int]:
    """Compile one method: a JNI stub for a native method, otherwise the
    pass pipeline and codegen over ``graph`` (built from the method when
    not given).  CTO sites land in ``thunks`` (``None``: CTO off).

    Returns the compiled method and the IR instruction counts before and
    after the passes (both 0 for a stub).  Observes
    ``compile.method_seconds``; the clock is read only under a tracer.
    """
    tracer = obs.current_tracer()
    start = time.perf_counter() if tracer is not None else 0.0
    if method.is_native:
        compiled, before, after = compile_jni_stub(method, method_id, thunks), 0, 0
    else:
        if graph is None:
            graph = build_hgraph(method)
        stats = manager.run(graph)
        compiled = compile_graph(graph, method, thunks)
        before, after = stats.instructions_before, stats.instructions_after
    if tracer is not None:
        tracer.histogram_observe("compile.method_seconds", time.perf_counter() - start)
    return compiled, before, after


def _flush_cto_counters(cache: ThunkCache, thunks: list[CompiledMethod]) -> None:
    """CTO bookkeeping: per-pattern hit counts and net bytes saved (each
    site replaces a 2-instruction pattern with one ``bl``; the shared
    thunk bodies are the cost side)."""
    if obs.current_tracer() is None:
        return
    for label, count in cache.hits.items():
        if label.startswith("__cto$java_call"):
            obs.counter_add("cto.sites.java_call", count)
        elif label.startswith("__cto$rt$"):
            obs.counter_add("cto.sites.runtime_call", count)
        else:
            obs.counter_add("cto.sites.stack_check", count)
    obs.counter_add("cto.sites", cache.total_sites)
    obs.counter_add("cto.thunks", len(thunks))
    obs.counter_add(
        "cto.bytes_saved", 4 * cache.total_sites - sum(t.size for t in thunks)
    )
