"""The size-reduction pass pipeline.

The passes are named, ordered classes sharing one shape — a ``name``,
a ``phase`` (the progress and timing-bucket label) and
``run(state, config, context)``:

* ``"outline"`` — LTBO.2 (candidate selection → partitioned repeat
  mining → occurrence rewriting), :class:`OutlinePass`;
* ``"merge"`` — post-outlining global function merging
  (:mod:`repro.core.merge`), :class:`MergePass`.

:meth:`CalibroConfig.passes <repro.core.pipeline.CalibroConfig.passes>`
derives the ordered pass list from ``ltbo_enabled`` / ``merging``, and
``build_app`` runs each named pass (``PASSES[name]()``) over a shared
:class:`PassState`.  A pass transforms the state in place; it must be
deterministic in the state and config (byte-identical reruns) and must
leave ``state.methods`` linkable (unique names, relocations resolvable
given ``state.aliases``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro import observability as obs

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.compiler.compiled import CompiledMethod
    from repro.core.candidates import CandidateSelection
    from repro.core.merge import MergeResult
    from repro.core.parallel import ParallelOutlineResult
    from repro.core.pipeline import CalibroConfig
    from repro.dex.method import DexFile

__all__ = [
    "MergePass",
    "OutlinePass",
    "PASSES",
    "PassContext",
    "PassState",
]


@dataclass
class PassContext:
    """Build-wide resources a pass may use (never owns)."""

    dexfile: "DexFile | None" = None
    #: The service's content-addressed :class:`~repro.service.cache.
    #: OutlineCache` (outline chunks, merge plans), or ``None``.
    cache: object | None = None
    #: The persistent worker pool for partitioned mining, or ``None``.
    pool: object | None = None


@dataclass
class PassState:
    """The mutable build state threaded through the pass pipeline.

    ``methods`` is the full method list the linker will see; passes
    rewrite it in place (outlining appends outlined functions, merging
    replaces members with thunks and records ``aliases`` for the
    linker's symbol binding).
    """

    methods: list["CompiledMethod"]
    #: Folded symbol → canonical symbol, accumulated for the linker.
    aliases: dict[str, str] = field(default_factory=dict)
    selection: "CandidateSelection | None" = None
    ltbo: "ParallelOutlineResult | None" = None
    merge: "MergeResult | None" = None


class OutlinePass:
    """LTBO.2 as a pass (paper §3.3, §3.4.1)."""

    name = "outline"
    phase = "ltbo"

    def run(
        self, state: PassState, config: "CalibroConfig", context: PassContext
    ) -> None:
        from repro.core.candidates import select_candidates
        from repro.core.parallel import outline_partitioned

        with obs.span("build.ltbo", groups=config.parallel_groups):
            with obs.span("ltbo.select_candidates"):
                state.selection = select_candidates(state.methods)
            hot_names = (
                config.hot_filter.hot_names
                if config.hot_filter is not None
                else frozenset()
            )
            state.ltbo = outline_partitioned(
                state.selection.candidates,
                groups=config.parallel_groups,
                hot_names=hot_names,
                min_length=config.min_length,
                max_length=config.max_length,
                min_saved=config.min_saved,
                jobs=config.jobs,
                seed=config.partition_seed,
                cache=context.cache,
                pool=context.pool,
            )
            with obs.span("ltbo.apply"):
                for index, rewritten in state.ltbo.rewritten.items():
                    state.methods[index] = rewritten
                state.methods.extend(state.ltbo.outlined)


class MergePass:
    """Global function merging as a pass (:mod:`repro.core.merge`)."""

    name = "merge"
    phase = "merge"

    def run(
        self, state: PassState, config: "CalibroConfig", context: PassContext
    ) -> None:
        from repro.core.merge import merge_functions

        with obs.span("build.merge"):
            hot_names = (
                config.hot_filter.hot_names
                if config.hot_filter is not None
                else frozenset()
            )
            result = merge_functions(
                state.methods,
                hot_names=hot_names,
                min_saved=config.min_saved,
                cache=context.cache,
            )
            state.methods = result.methods
            state.aliases.update(result.aliases)
            state.merge = result


#: Pass name → pass class, in pipeline order.
PASSES: dict[str, type] = {
    OutlinePass.name: OutlinePass,
    MergePass.name: MergePass,
}
