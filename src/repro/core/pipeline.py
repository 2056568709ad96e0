"""The end-to-end Calibro build pipeline (paper Fig. 5).

``build_app`` runs dex2oat (with or without CTO), then LTBO.2 over the
candidate methods (one global index or K PlOpti partitions, with the
optional HfOpti mask), then the linking phase — producing the final OAT
image plus the per-phase timing breakdown Table 6 reports.

Configurations match the paper's evaluation rows:

* ``CalibroConfig.baseline()`` — AOSP with all stock size opts (the
  HGraph pass pipeline runs in every configuration);
* ``.cto()`` — + compilation-time outlining;
* ``.cto_ltbo()`` — + link-time outlining, one global suffix tree;
* ``.cto_ltbo_plopti(k)`` — + K paralleled suffix trees;
* ``.full(profile, k)`` — + hot function filtering on a profile.

The config validates itself at construction (:class:`ConfigError`
before any work starts, not a stack trace from deep inside
``outline_partitioned``) and round-trips through ``to_dict`` /
``from_dict`` — the one config format shared by the CLI, trace files
and the build service (:mod:`repro.service`).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, replace as dc_replace
from typing import TYPE_CHECKING, Callable

from repro import observability as obs
from repro.compiler.driver import Dex2OatResult, dex2oat
from repro.core.candidates import CandidateSelection
from repro.core.errors import ConfigError
from repro.core.hotfilter import HotFunctionFilter
from repro.core.outline import (
    DEFAULT_MAX_LENGTH,
    DEFAULT_MIN_LENGTH,
    DEFAULT_MIN_SAVED,
    OutlineStats,
)
from repro.core.parallel import ParallelOutlineResult
from repro.core.passes import PASSES, PassContext, PassState
from repro.dex.method import DexFile
from repro.oat.linker import link
from repro.oat.oatfile import OatFile
from repro.observability import Trace
from repro.suffixtree import parallel as group_parallel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.merge import MergeResult

__all__ = ["CalibroBuild", "CalibroConfig", "SUMMARY_KEYS", "SUMMARY_SCHEMA_VERSION", "build_app"]

#: Version of the ``CalibroBuild.summary()`` / ``to_json()`` document.
#: Bump on any key addition, removal or meaning change; consumers pin it.
#: v2 added ``engine`` (the repeat-mining backend); v3 added the
#: merging-pass fields (``merging``, ``functions_folded``,
#: ``functions_merged``, ``merge_saved_bytes``) and the ``merge``
#: timing bucket; v4 removed ``engine`` (one miner remains).
SUMMARY_SCHEMA_VERSION = 4

#: Every key ``summary()`` emits, in emission order.  ``docs/cli.md``
#: documents each one and ``tests/test_cli_docs.py`` enforces that.
SUMMARY_KEYS = (
    "schema_version",
    "config",
    "text_size",
    "data_size",
    "methods",
    "outlined_functions",
    "occurrences_replaced",
    "cached_groups",
    "merging",
    "functions_folded",
    "functions_merged",
    "merge_saved_bytes",
    "build_seconds",
    "timings",
)


@dataclass(frozen=True)
class CalibroConfig:
    """One build configuration (an evaluation row).

    Invalid field values raise :class:`~repro.core.errors.ConfigError`
    at construction time.
    """

    cto_enabled: bool = False
    ltbo_enabled: bool = False
    #: Conservative small-method inlining before the pass pipeline
    #: (related-work interaction study; the paper's rows keep it off).
    inlining: bool = False
    #: Number of PlOpti partitions; 1 = one global index.
    parallel_groups: int = 1
    #: Process budget of a library build, for the ``dex2oat`` method
    #: chunks and for the PlOpti groups; both clamp to the usable CPUs.
    #: ``None``: one job per PlOpti group, and a compile as wide as the
    #: usable CPUs once the process-wide executor's workers run, in
    #: process before.  No config's bytes depend on it.
    jobs: int | None = None
    hot_filter: HotFunctionFilter | None = None
    min_length: int = DEFAULT_MIN_LENGTH
    max_length: int = DEFAULT_MAX_LENGTH
    min_saved: int = DEFAULT_MIN_SAVED
    partition_seed: int = 0
    #: Run the post-outlining global function merging pass
    #: (:mod:`repro.core.merge`).  Off by default, so the paper's
    #: evaluation rows are unchanged.
    merging: bool = False
    name: str = "baseline"

    def __post_init__(self) -> None:
        if self.parallel_groups < 1:
            raise ConfigError(
                f"parallel_groups must be >= 1, got {self.parallel_groups}"
            )
        if self.jobs is not None and self.jobs < 1:
            raise ConfigError(f"jobs must be None or >= 1, got {self.jobs}")
        if self.min_length < 1:
            raise ConfigError(f"min_length must be >= 1, got {self.min_length}")
        if self.min_length > self.max_length:
            raise ConfigError(
                f"min_length ({self.min_length}) must not exceed "
                f"max_length ({self.max_length})"
            )
        if self.min_saved < 0:
            raise ConfigError(f"min_saved must be >= 0, got {self.min_saved}")

    @property
    def passes(self) -> tuple[str, ...]:
        """The ordered size-reduction passes this config runs, derived
        from ``ltbo_enabled`` / ``merging`` (read-only)."""
        derived: list[str] = []
        if self.ltbo_enabled:
            derived.append("outline")
        if self.merging:
            derived.append("merge")
        return tuple(derived)

    @classmethod
    def baseline(cls) -> "CalibroConfig":
        return cls(name="baseline")

    @classmethod
    def cto(cls) -> "CalibroConfig":
        return cls(cto_enabled=True, name="CTO")

    @classmethod
    def cto_ltbo(cls) -> "CalibroConfig":
        return cls(cto_enabled=True, ltbo_enabled=True, name="CTO+LTBO")

    @classmethod
    def cto_ltbo_plopti(cls, groups: int = 8, jobs: int | None = None) -> "CalibroConfig":
        return cls(
            cto_enabled=True,
            ltbo_enabled=True,
            parallel_groups=groups,
            jobs=jobs,
            name="CTO+LTBO+PlOpti",
        )

    @classmethod
    def full(
        cls,
        profile: dict[str, int],
        groups: int = 8,
        coverage: float = 0.80,
        jobs: int | None = None,
    ) -> "CalibroConfig":
        return cls(
            cto_enabled=True,
            ltbo_enabled=True,
            parallel_groups=groups,
            jobs=jobs,
            hot_filter=HotFunctionFilter.from_profile(profile, coverage),
            name="CTO+LTBO+PlOpti+HfOpti",
        )

    def with_hot_filter(self, hot_filter: HotFunctionFilter) -> "CalibroConfig":
        return dc_replace(self, hot_filter=hot_filter, name=self.name + "+HfOpti")

    def with_merging(self) -> "CalibroConfig":
        """This configuration plus the global function merging pass."""
        return dc_replace(self, merging=True, name=self.name + "+Merge")

    # -- the shared dict format (CLI ⇄ service ⇄ files) --------------------

    def to_dict(self) -> dict[str, object]:
        """A JSON-compatible dict; ``from_dict`` round-trips it."""
        hot = None
        if self.hot_filter is not None:
            hot = {
                "hot_names": sorted(self.hot_filter.hot_names),
                "coverage": self.hot_filter.coverage,
                "total_cycles": self.hot_filter.total_cycles,
                "covered_cycles": self.hot_filter.covered_cycles,
            }
        return {
            "name": self.name,
            "cto_enabled": self.cto_enabled,
            "ltbo_enabled": self.ltbo_enabled,
            "inlining": self.inlining,
            "parallel_groups": self.parallel_groups,
            "jobs": self.jobs,
            "min_length": self.min_length,
            "max_length": self.max_length,
            "min_saved": self.min_saved,
            "partition_seed": self.partition_seed,
            "merging": self.merging,
            "hot_filter": hot,
        }

    @classmethod
    def from_dict(cls, data: dict[str, object]) -> "CalibroConfig":
        """Build a config from the ``to_dict`` shape.

        Missing keys take their defaults; unknown keys raise
        :class:`ConfigError` (a typo should not silently become a
        default build).
        """
        if not isinstance(data, dict):
            raise ConfigError(f"config must be a mapping, got {type(data).__name__}")
        payload = dict(data)
        hot = payload.pop("hot_filter", None)
        hot_filter = None
        if hot is not None:
            if not isinstance(hot, dict):
                raise ConfigError("hot_filter must be a mapping or null")
            try:
                hot_filter = HotFunctionFilter(
                    hot_names=frozenset(hot["hot_names"]),
                    coverage=hot.get("coverage", 0.80),
                    total_cycles=hot.get("total_cycles", 0),
                    covered_cycles=hot.get("covered_cycles", 0),
                )
            except KeyError as exc:
                raise ConfigError(f"hot_filter is missing key {exc}") from None
        known = {
            "name", "cto_enabled", "ltbo_enabled", "inlining", "parallel_groups",
            "jobs", "min_length", "max_length", "min_saved", "partition_seed",
            "merging",
        }
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        return cls(hot_filter=hot_filter, **payload)


#: How ``build_app`` compiles: ``step(dexfile, config)`` returns the
#: compile result and how many methods it compiled in this build (0 when
#: every artifact came from a cache).
CompileStep = Callable[[DexFile, "CalibroConfig"], tuple[Dex2OatResult, int]]


@dataclass
class CalibroBuild:
    """A finished build: the OAT image plus every measurement the
    evaluation harness consumes."""

    oat: OatFile
    config: CalibroConfig
    dex2oat: Dex2OatResult
    #: Methods the compile step compiled in this build; 0 when the whole
    #: result came from a cache (the ``build.dex2oat`` span's ``cached``).
    methods_compiled: int = 0
    selection: CandidateSelection | None = None
    ltbo: ParallelOutlineResult | None = None
    merge: "MergeResult | None" = None
    timings: dict[str, float] = field(default_factory=dict)
    #: Structured span trace of this build (phase tree + counter
    #: registry); ``None`` only when observability is globally disabled
    #: (``CALIBRO_OBS_OFF``).
    trace: Trace | None = None

    @property
    def text_size(self) -> int:
        return self.oat.text_size

    @property
    def build_seconds(self) -> float:
        return self.timings.get("total", 0.0)

    @property
    def outline_stats(self) -> list[OutlineStats]:
        return self.ltbo.group_stats if self.ltbo else []

    def summary(self) -> dict[str, object]:
        """The stable result document (see ``SUMMARY_KEYS`` /
        ``SUMMARY_SCHEMA_VERSION``; every key is documented in
        ``docs/cli.md``)."""
        return {
            "schema_version": SUMMARY_SCHEMA_VERSION,
            "config": self.config.name,
            "text_size": self.text_size,
            "data_size": self.oat.data_size,
            "methods": len(self.oat.methods),
            "outlined_functions": self.ltbo.total_outlined_functions if self.ltbo else 0,
            "occurrences_replaced": self.ltbo.total_occurrences if self.ltbo else 0,
            "cached_groups": self.ltbo.cached_groups if self.ltbo else 0,
            "merging": "merge" in self.config.passes,
            "functions_folded": self.merge.stats.functions_folded if self.merge else 0,
            "functions_merged": self.merge.stats.functions_merged if self.merge else 0,
            "merge_saved_bytes": self.merge.stats.saved_bytes if self.merge else 0,
            "build_seconds": round(self.build_seconds, 4),
            "timings": {k: round(v, 4) for k, v in self.timings.items()},
        }

    def to_json(self, *, indent: int | None = None) -> str:
        """``summary()`` as a JSON document (what ``calibro build
        --json`` and ``calibro serve --json`` print)."""
        return json.dumps(self.summary(), indent=indent)


def build_app(
    dexfile: DexFile,
    config: CalibroConfig | None = None,
    *,
    compile_step: CompileStep | None = None,
    cache=None,
    pool=None,
    phase_hook=None,
) -> CalibroBuild:
    """Compile, (optionally) outline, and link one application.

    Phase timings come from the observability spans (``build`` →
    ``build.dex2oat`` / ``build.ltbo`` / ``build.merge`` /
    ``build.link``); an already installed tracer is reused (so callers
    see this build nested in their own trace), otherwise a build-local
    one is created.  With observability globally disabled the same code
    runs with that tracer never installed, and ``build.trace`` is
    ``None`` — the control arm of
    ``benchmarks/bench_observability_overhead.py``.

    The keyword-only extras are the build-service integration points:
    ``compile_step`` (a :data:`CompileStep`) replaces the plain
    ``dex2oat`` call inside ``build.dex2oat`` — the service's cached
    whole-dex compile or the build graph's per-method nodes — so every
    path times its compile work there; ``cache``/``pool`` flow to
    :func:`~repro.core.parallel.outline_partitioned` (the outline cache
    and the persistent worker pool), and ``phase_hook`` — a
    ``callable(phase: str)`` — fires as each pipeline phase starts
    (``"dex2oat"``, ``"ltbo"``, ``"link"``): the mechanism behind the
    serve protocol's streamed ``progress`` events.
    """
    config = config or CalibroConfig.baseline()
    tracer = obs.current_tracer()
    if tracer is not None:
        return _build(dexfile, config, tracer, compile_step, cache, pool, phase_hook)
    # With observability disabled, tracing() installs nothing: the
    # build-local tracer then times only the phase spans opened on it
    # directly, and every instrumented call inside stays a no-op.
    with obs.tracing() as tracer:
        return _build(dexfile, config, tracer, compile_step, cache, pool, phase_hook)


def _dex2oat(dexfile: DexFile, config: CalibroConfig) -> tuple[Dex2OatResult, int]:
    """The default compile step: one uncached ``dex2oat`` run, as wide
    as ``config.jobs`` in every config.  Unset, the compile fans out
    only onto workers that already run, so a one-shot build does not
    pay their start-up in its compile; its PlOpti groups, if any,
    start them in LTBO."""
    jobs = config.jobs
    if jobs is None:
        # Looked up on their module, so a patched CPU count or executor
        # applies here too.
        running = group_parallel.shared_executor_running()
        jobs = group_parallel.available_parallelism() if running else 1
    result = dex2oat(
        dexfile, cto=config.cto_enabled, inline=config.inlining, jobs=jobs
    )
    return result, len(dexfile.all_methods())


def _phase(phase_hook, name: str) -> None:
    if phase_hook is not None:
        phase_hook(name)


def _run_passes(
    tracer: obs.Tracer,
    methods: list,
    config: CalibroConfig,
    cache,
    pool,
    phase_hook,
) -> tuple[PassState, dict[str, float]]:
    """Run ``config.passes`` over the compiled methods, each inside its
    phase span (``build.ltbo``, ``build.merge``) opened on ``tracer``;
    returns the state and each span's duration under the pass's
    ``phase`` bucket (``"ltbo"``, ``"merge"``)."""
    state = PassState(methods=methods)
    context = PassContext(cache=cache, pool=pool)
    pass_seconds: dict[str, float] = {}
    for pass_name in config.passes:
        size_pass = PASSES[pass_name]()
        _phase(phase_hook, size_pass.phase)
        with tracer.span(size_pass.span_name) as pass_span:
            size_pass.run(state, config, context)
        pass_seconds[size_pass.phase] = pass_span.duration
    return state, pass_seconds


def _build(
    dexfile: DexFile,
    config: CalibroConfig,
    tracer: obs.Tracer,
    compile_step: CompileStep | None = None,
    cache=None,
    pool=None,
    phase_hook=None,
) -> CalibroBuild:
    with tracer.span("build", config=config.name) as build_span:
        _phase(phase_hook, "dex2oat")
        with tracer.span("build.dex2oat", cto=config.cto_enabled) as compile_span:
            compile_result, methods_compiled = (compile_step or _dex2oat)(
                dexfile, config
            )
            compile_span.attrs["cached"] = methods_compiled == 0

        state, pass_seconds = _run_passes(
            tracer, list(compile_result.methods), config, cache, pool, phase_hook
        )

        _phase(phase_hook, "link")
        with tracer.span("build.link") as link_span:
            oat = link(state.methods, dexfile, aliases=state.aliases or None)

    return CalibroBuild(
        oat=oat,
        config=config,
        dex2oat=compile_result,
        methods_compiled=methods_compiled,
        selection=state.selection,
        ltbo=state.ltbo,
        merge=state.merge,
        timings={
            "compile": compile_span.duration,
            "ltbo": pass_seconds.get("ltbo", 0.0),
            "merge": pass_seconds.get("merge", 0.0),
            "link": link_span.duration,
            "total": build_span.duration,
        },
        trace=Trace(
            spans=[build_span],
            counters=dict(tracer.counters),
            gauges=dict(tracer.gauges),
            histograms=dict(tracer.histograms),
            meta={
                "config": config.name,
                "trace_id": tracer.trace_id,
                "epoch_unix": tracer.epoch_unix,
                "pid": os.getpid(),
            },
        )
        if obs.enabled()
        else None,
    )
