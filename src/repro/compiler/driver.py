"""The DEX2OAT driver: verify → HGraph → opt passes → codegen (Fig. 5).

Every method is compiled independently (as in real dex2oat); the only
cross-method state is the CTO thunk cache, which is exactly the paper's
design — CTO works *during* per-method code generation against a shared
label cache, and the thunk bodies join the link set afterwards.
:func:`compile_method` is that per-method unit: ``dex2oat`` runs it over
round-robin chunks of the method table, in-process or on the
process-wide group executor, each chunk against its own cache, and the
incremental build graph (:mod:`repro.service.graph`) runs it once per
rebuilt method node against the node's own cache; both assemble their
units with :func:`assemble_result`.  Labels and bodies are pure
functions of the pattern, so the merged caches
(:meth:`~repro.core.patterns.ThunkCache.merge`) render the thunks one
shared cache would.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro import observability as obs
from repro.compiler.codegen import compile_graph, compile_jni_stub
from repro.compiler.compiled import CompiledMethod
from repro.core.errors import ConfigError
from repro.core.patterns import ThunkCache
from repro.dex.method import DexFile, DexMethod
from repro.dex.verifier import verify_dexfile
from repro.hgraph.builder import build_hgraph
from repro.hgraph.ir import HGraph
from repro.hgraph.passes import optimize
from repro.suffixtree.parallel import clamp_jobs, round_robin_shards, shared_executor

__all__ = ["Dex2OatResult", "assemble_result", "compile_method", "dex2oat"]


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
    jobs: int = 1,
) -> Dex2OatResult:
    """Compile a dex file to a set of relocatable method blobs, after
    verifying the whole file (``dex2oat.verify``).

    ``cto=True`` enables the compilation-time outlining of the three
    ART-specific patterns (paper Section 3.1).  ``inline=True`` runs the
    conservative small-method inliner before the per-method pipeline
    (the related-work interaction study; off by default, matching the
    paper's baseline configuration).

    ``jobs`` is the compile width, clamped like PlOpti's
    (:func:`~repro.suffixtree.parallel.clamp_jobs`, against the method
    count).  Above one, the methods go out in round-robin chunks to the
    process-wide :class:`~repro.suffixtree.parallel.GroupExecutor`, each
    chunk against its own thunk cache, and the chunk caches merge into
    one.  The inliner reads every graph before codegen, so
    ``inline=True`` compiles at width 1.  The bytes do not depend on
    the width.
    """
    from repro.hgraph.passes.inlining import inline_small_methods

    if jobs < 1:
        raise ConfigError("jobs must be >= 1")
    start = time.perf_counter()
    with obs.span("dex2oat.verify"):
        verify_dexfile(dexfile)
    methods = dexfile.all_methods()
    graphs: dict[str, HGraph] | None = None
    inlined_sites = 0
    if inline:
        graphs = {}
        with obs.span("dex2oat.hgraph"):
            for method in methods:
                if not method.is_native:
                    graphs[method.name] = build_hgraph(method)
        with obs.span("dex2oat.inline"):
            for graph in graphs.values():
                inlined_sites += inline_small_methods(graph, graphs.get)

    width = 1 if inline else clamp_jobs(jobs, len(methods))
    with obs.span("dex2oat.codegen"):
        if width == 1:
            payloads = [(cto, list(enumerate(methods)))]
            outputs = [_compile_chunk(payloads[0], graphs)]
        else:
            payloads = [
                (cto, [(i, methods[i]) for i in chunk])
                for chunk in round_robin_shards(len(methods), width)
            ]
            outputs = shared_executor().run_chunks(
                _compile_chunk, payloads, [[c] for c in range(width)]
            )
    compiled: list = [None] * len(methods)
    for (_cto, chunk), (chunk_compiled, *_) in zip(payloads, outputs):
        for (method_id, _method), method_compiled in zip(chunk, chunk_compiled):
            compiled[method_id] = method_compiled
    return assemble_result(
        methods, compiled, outputs, cto=cto, start=start, inlined_sites=inlined_sites
    )


def assemble_result(
    methods: list[DexMethod],
    compiled: list[CompiledMethod],
    units: list[tuple[object, ThunkCache | None, int, int]],
    *,
    cto: bool,
    start: float,
    inlined_sites: int = 0,
) -> Dex2OatResult:
    """dex2oat's assembly tail, shared with the incremental build graph.

    ``compiled`` holds one compiled method per entry of ``methods``, in
    method order.  ``units`` are the outputs of the units that compiled
    them (dex2oat's chunks, the graph's method nodes): ``(compiled,
    thunk cache or None, IR instructions before, after)``.  With ``cto``
    on, the unit caches merge into one, whose thunks render inside
    ``dex2oat.thunks``.  The ``cto.*`` and ``dex2oat.*`` counters
    describe the assembled result, units spliced from a cache included.
    ``start`` is the ``perf_counter`` reading the compile began at.
    """
    cache = ThunkCache() if cto else None
    ir_before = ir_after = 0
    for _compiled, unit_cache, unit_before, unit_after in units:
        ir_before += unit_before
        ir_after += unit_after
        if cache is not None and unit_cache is not None:
            cache.merge(unit_cache)
    if cache is not None:
        with obs.span("dex2oat.thunks"):
            thunks = cache.compiled_thunks()
        compiled = compiled + thunks
        _flush_cto_counters(cache, thunks)
    obs.counter_add("dex2oat.methods", len(methods))
    obs.counter_add("dex2oat.native_stubs", sum(m.is_native for m in methods))
    obs.counter_add("dex2oat.ir_instructions_removed", ir_before - ir_after)
    obs.counter_add("dex2oat.inlined_sites", inlined_sites)
    return Dex2OatResult(
        methods=compiled,
        cto=cache,
        compile_seconds=time.perf_counter() - start,
        ir_instructions_before=ir_before,
        ir_instructions_after=ir_after,
        inlined_sites=inlined_sites,
    )


def _compile_chunk(
    payload: tuple[bool, list[tuple[int, DexMethod]]],
    graphs: dict[str, HGraph] | None = None,
) -> tuple[list[CompiledMethod], ThunkCache | None, int, int]:
    """Compile one chunk ``(cto, [(method_id, method), ...])`` against
    its own thunk cache: the unit ``dex2oat`` runs in-process or sends
    to an executor child (module-level, so the pool can pickle it).
    ``graphs`` are the inliner's prebuilt HGraphs (in-process only).

    Returns the compiled methods in chunk order, the chunk's thunk cache
    (``None`` with CTO off) and the summed IR instruction counts before
    and after the passes.
    """
    cto, methods = payload
    thunks = ThunkCache() if cto else None
    compiled: list[CompiledMethod] = []
    before = after = 0
    for method_id, method in methods:
        graph = graphs.get(method.name) if graphs is not None else None
        method_compiled, ir_before, ir_after = compile_method(
            method, method_id, thunks, graph
        )
        compiled.append(method_compiled)
        before += ir_before
        after += ir_after
    return compiled, thunks, before, after


def compile_method(
    method: DexMethod,
    method_id: int,
    thunks: ThunkCache | None,
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
        stats = optimize(graph)
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
