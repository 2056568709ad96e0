"""Staged build API: the Fig. 5 pipeline as separable file-backed stages.

``build_app`` (:mod:`repro.core.pipeline`) runs everything in-process;
this module exposes the same three stages operating on
:class:`~repro.compiler.package.CompilationPackage` artifacts, so
compile, outline and link can run as separate processes (the CLI's
``compile`` / ``outline`` / ``link`` commands) — mirroring how the real
system splits DEX2OAT from the linking phase.
"""

from __future__ import annotations

from repro import observability as obs
from repro.compiler.driver import dex2oat
from repro.compiler.package import CompilationPackage
from repro.core.candidates import select_candidates
from repro.core.errors import ConfigError
from repro.core.hotfilter import HotFunctionFilter
from repro.core.outline import DEFAULT_MAX_LENGTH, DEFAULT_MIN_LENGTH, DEFAULT_MIN_SAVED
from repro.core.parallel import outline_partitioned
from repro.dex.method import DexFile
from repro.oat.linker import link
from repro.oat.oatfile import OatFile

__all__ = ["compile_stage", "link_stage", "outline_stage"]


def compile_stage(
    dexfile: DexFile, *, cto: bool = True, inline: bool = False
) -> CompilationPackage:
    """DEX2OAT with CTO and LTBO.1 metadata collection → package."""
    with obs.span("stage.compile", cto=cto):
        result = dex2oat(dexfile, cto=cto, inline=inline)
    return CompilationPackage(
        methods=result.methods,
        string_table=list(dexfile.string_table),
        cto_enabled=cto,
        annotations={
            "compile_seconds": round(result.compile_seconds, 4),
            "ir_instructions_before": result.ir_instructions_before,
            "ir_instructions_after": result.ir_instructions_after,
            "inlined_sites": result.inlined_sites,
        },
    )


def outline_stage(
    package: CompilationPackage,
    *,
    groups: int = 1,
    hot_filter: HotFunctionFilter | None = None,
    min_length: int = DEFAULT_MIN_LENGTH,
    max_length: int = DEFAULT_MAX_LENGTH,
    min_saved: int = DEFAULT_MIN_SAVED,
    jobs: int | None = None,
    seed: int = 0,
    rounds: int = 1,
) -> CompilationPackage:
    """LTBO.2 over a package; returns the rewritten package.

    ``rounds > 1`` re-runs the outliner over its own output (Uber's
    multi-round approach from the related work).  Outlined functions end
    in ``br`` and never re-outline; later rounds only find repeats the
    greedy claim of earlier rounds shadowed — typically a sliver, which
    the round annotations record (a deliberate negative result: one
    Calibro pass converges).
    """
    if rounds < 1:
        raise ConfigError("rounds must be >= 1")
    methods = list(package.methods)
    hot_names = hot_filter.hot_names if hot_filter is not None else frozenset()
    round_info = []
    for round_index in range(rounds):
        with obs.span("stage.outline", round=round_index, groups=groups):
            with obs.span("ltbo.select_candidates"):
                selection = select_candidates(methods)
            prefix = (
                "MethodOutliner" if round_index == 0 else f"MethodOutliner$r{round_index}"
            )
            result = outline_partitioned(
                selection.candidates,
                groups=groups,
                hot_names=hot_names,
                min_length=min_length,
                max_length=max_length,
                min_saved=min_saved,
                jobs=jobs,
                seed=seed + round_index,
                symbol_prefix=prefix,
            )
            with obs.span("ltbo.apply"):
                for index, rewritten in result.rewritten.items():
                    methods[index] = rewritten
                methods.extend(result.outlined)
        round_info.append(
            {
                "outlined_functions": result.total_outlined_functions,
                "occurrences_replaced": result.total_occurrences,
                "instructions_saved": sum(
                    s.instructions_saved for s in result.group_stats
                ),
            }
        )
        if result.total_outlined_functions == 0:
            break
    annotations = dict(package.annotations)
    annotations["outline"] = {
        "groups": groups,
        "rounds": round_info,
        "outlined_functions": sum(r["outlined_functions"] for r in round_info),
        "occurrences_replaced": sum(r["occurrences_replaced"] for r in round_info),
        "instructions_saved": sum(r["instructions_saved"] for r in round_info),
        "hot_filtered": len(hot_names),
    }
    return CompilationPackage(
        methods=methods,
        string_table=package.string_table,
        cto_enabled=package.cto_enabled,
        annotations=annotations,
    )


def link_stage(package: CompilationPackage) -> OatFile:
    """The final linking phase: label binding + relocation + StackMap
    consistency check."""
    shim = DexFile(classes=[], string_table=list(package.string_table))
    with obs.span("stage.link"):
        return link(package.methods, shim)
