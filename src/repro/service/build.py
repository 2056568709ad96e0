"""The batch build service: persistent pool + content-addressed caching.

``build_app`` is a one-shot: every call recompiles, rebuilds every
suffix tree, and (pre-service) forked a fresh process pool.  A fleet
build farm does the opposite — it builds *many* apps, *repeatedly*,
with most inputs unchanged between runs.  :class:`BuildService` is that
amortizing layer:

* one persistent :class:`~repro.service.pool.WorkerPool` for the
  service lifetime (timeout + retry + serial fallback per group);
* an :class:`~repro.service.cache.OutlineCache` keyed on group content,
  so unchanged methods across rebuilds and identical groups across apps
  skip the suffix-tree work;
* a compile cache over the same store, keyed on the dex content and
  compile flags, so an unchanged app skips dex2oat entirely;
* ``service.*`` spans/counters in the existing observability layer, and
  a versioned report (:meth:`BuildReport.summary`) per build;
* optional durable exhaust: a :class:`~repro.observability.ledger.
  BuildLedger` receiving one entry per build (``ledger=``), and a
  Prometheus exposition file refreshed after every build
  (``metrics_path=`` — the mechanism behind ``calibro serve
  --metrics-file``).

Serial, uncached and cached builds produce **byte-identical** OAT
images — ``benchmarks/bench_service_cache.py`` proves both that and the
warm-rebuild speedup, and ``tests/service/`` holds the determinism
suite.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from repro import __version__, observability as obs
from repro.compiler.driver import Dex2OatResult
from repro.core.errors import ServiceError
from repro.core.pipeline import (
    SUMMARY_SCHEMA_VERSION,
    CalibroBuild,
    CalibroConfig,
    build_app,
)
from repro.dex.method import DexFile
from repro.service.cache import OutlineCache
from repro.service.config import ServiceConfig
from repro.service.graph import BuildGraph, GraphDelta, dex_node_key
from repro.service.pool import WorkerPool
from repro.service.protocol import PROTOCOL_VERSION
from repro.service.shard import ShardExecutor
from repro.suffixtree import DEFAULT_ENGINE

__all__ = ["BuildReport", "BuildRequest", "BuildService", "build_info_labels"]


def build_info_labels() -> dict[str, str]:
    """The static ``calibro_build_info`` labelset: package version, wire
    protocol version and default mining engine (see
    ``docs/observability.md``)."""
    return {
        "version": __version__,
        "protocol": str(PROTOCOL_VERSION),
        "engine": DEFAULT_ENGINE,
    }


@dataclass(frozen=True)
class BuildRequest:
    """One unit of batch work: an app and the configuration to build it
    under.  ``label`` names the build in reports (and output files, for
    ``calibro serve``)."""

    dexfile: DexFile
    config: CalibroConfig | None = None
    label: str = ""


@dataclass
class BuildReport:
    """A finished service build: the :class:`CalibroBuild` plus what the
    service layer did for it."""

    label: str
    build: CalibroBuild
    #: Wall seconds inside the service (compile-cache lookup included).
    seconds: float
    #: dex2oat was skipped — the compile cache had this exact dex+flags.
    compile_cached: bool
    #: PlOpti groups served from the outline cache / total groups.
    cached_groups: int
    total_groups: int
    #: Delta accounting when the service ran incrementally
    #: (``ServiceConfig(incremental=True)``); ``None`` otherwise.
    graph: GraphDelta | None = None

    def summary(self) -> dict[str, object]:
        """The build's versioned summary plus the service fields
        (``label``, ``seconds``, ``compile_cached``, ``total_groups``,
        and — on incremental builds — ``graph``; all documented in
        ``docs/cli.md``)."""
        out = self.build.summary()
        out["label"] = self.label
        out["seconds"] = round(self.seconds, 4)
        out["compile_cached"] = self.compile_cached
        out["total_groups"] = self.total_groups
        if self.graph is not None:
            out["graph"] = self.graph.as_dict()
        return out


class BuildService:
    """A long-lived builder for batches of apps.

    Configuration lives in one validated value —
    :class:`~repro.service.config.ServiceConfig` — instead of nine
    loose keyword arguments::

        with BuildService(ServiceConfig(cache_dir="cache", shards=4)) as svc:
            ...

    ``cache_dir=None`` keeps the cache in memory only; point it at a
    directory to persist outline/compile results across service
    restarts (sharded, size-bounded — see
    :class:`~repro.service.cache.OutlineCache`).  ``config.ledger`` (or
    the ``ledger`` keyword — a path or an existing
    :class:`~repro.observability.ledger.BuildLedger`) makes every build
    append its durable record; ``metrics_path`` keeps a Prometheus
    exposition file refreshed after every build and at :meth:`close`
    (requires an active tracer to have anything to export; the
    exposition always carries the static ``calibro_build_info``
    labelset).  ``shards >= 2`` routes group work through the
    :class:`~repro.service.shard.ShardExecutor` (one chunk per shard)
    instead of the per-group worker pool (``shard_timeout`` is its
    per-batch budget) — output bytes are identical either way.
    ``incremental=True`` replaces the all-or-nothing compile cache with
    the keyed build dependency graph (:mod:`repro.service.graph`):
    only nodes whose content hash moved re-execute, the rest splice
    from the cache, and each report carries a
    :class:`~repro.service.graph.GraphDelta` — byte-identical output,
    delta-build cost.  Use as a context manager, or call :meth:`close`
    to release the worker pool.
    """

    def __init__(
        self,
        config: ServiceConfig | None = None,
        *,
        ledger: "obs.BuildLedger | str | None" = None,
    ) -> None:
        self.config = config if config is not None else ServiceConfig()
        self.cache = OutlineCache(
            self.config.cache_dir,
            max_bytes=self.config.cache_max_bytes,
            memory_entries=self.config.cache_memory_entries,
        )
        # incremental=True routes every submit through the keyed build
        # dependency graph (repro.service.graph): per-node reuse instead
        # of the all-or-nothing whole-dex compile cache.  Graph state
        # persists next to the cache when one is on disk.
        self.graph = (
            BuildGraph(
                self.cache,
                self.cache.directory / "graph"
                if self.cache.directory is not None
                else None,
            )
            if self.config.incremental
            else None
        )
        # With shared_cache resolved on (default whenever cache_dir is
        # set), shard and pool worker processes open their own
        # read-through handle on the same disk directory — a group
        # mined by any child of any tenant is a disk hit everywhere.
        self._shared_spec = (
            self.cache.shared_spec() if self.config.shared_cache_enabled else None
        )
        self.pool = WorkerPool(
            max_workers=self.config.max_workers,
            timeout=self.config.group_timeout,
            cache=self._shared_spec,
        )
        # shards >= 2 swaps the per-group worker pool for the
        # multi-process shard executor (repro.service.shard) — coarser
        # dispatch units, byte-identical output.
        self.shard_executor = (
            ShardExecutor(
                shards=self.config.shards,
                timeout=self.config.shard_timeout,
                cache=self._shared_spec,
            )
            if self.config.shards is not None and self.config.shards >= 2
            else None
        )
        if ledger is None:
            ledger = self.config.ledger
        if ledger is None or isinstance(ledger, obs.BuildLedger):
            self.ledger = ledger
        else:
            self.ledger = obs.BuildLedger(ledger)
        self._metrics = (
            obs.PromReporter(self.config.metrics_path, info=build_info_labels())
            if self.config.metrics_path
            else None
        )
        self.builds_completed = 0
        #: Guards submit-side bookkeeping: the async front door may run
        #: builds from executor threads (registry updates are already
        #: locked inside the tracer; this covers the service's own
        #: counters and the ledger append ordering).
        self._submit_lock = threading.Lock()
        self._closed = False

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        self.flush_metrics()
        self.pool.close()
        if self.shard_executor is not None:
            self.shard_executor.close()
        self._closed = True

    def flush_metrics(self) -> bool:
        """Refresh the Prometheus exposition file now (no-op without
        ``metrics_path`` or an active tracer).  Runs after every build
        and at :meth:`close`; the async front door additionally calls it
        on a timer so a long-idle serve loop still exposes fresh
        scrape data.  Returns whether a file was written.

        The exposition renders the *process-wide* tracer when one is
        installed: under the serve front door the calling thread may be
        inside a per-build overlay (:func:`~repro.observability.
        thread_tracing`), and scraping one build's registries as if
        they were the server's would zero every accumulated series."""
        if self._metrics is None:
            return False
        tracer = obs.global_tracer() or obs.current_tracer()
        if tracer is None:
            return False
        self._metrics.emit(tracer.snapshot())
        return True

    @property
    def metrics_reporter(self) -> "obs.PromReporter | None":
        """The service's Prometheus reporter (``None`` without
        ``metrics_path``) — the front door attaches its per-tenant
        labeled series through ``metrics_reporter.extra_source``."""
        return self._metrics

    def __enter__(self) -> "BuildService":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    # -- building -----------------------------------------------------------

    def submit(
        self,
        dexfile: DexFile,
        config: CalibroConfig | None = None,
        *,
        label: str = "",
        phase_hook=None,
    ) -> BuildReport:
        """Build one app through the shared pool and caches.

        ``phase_hook`` — a ``callable(phase: str)`` — fires as each
        pipeline phase starts (``"dex2oat"``/``"ltbo"``/``"link"``, or
        ``"graph.delta"`` on the incremental path): the mechanism
        behind the serve protocol's streamed ``progress`` events.
        """
        if self._closed:
            raise ServiceError("build service is closed")
        config = config or CalibroConfig.baseline()
        start = time.perf_counter()
        hits_before = self.cache.stats.hits
        misses_before = self.cache.stats.misses
        pool = self.shard_executor if self.shard_executor is not None else self.pool
        graph_delta: GraphDelta | None = None
        with obs.span("service.build", label=label or config.name, config=config.name):
            if self.graph is not None:
                if phase_hook is not None:
                    phase_hook("graph.delta")
                build, graph_delta = self.graph.build(
                    dexfile, config, label=label or config.name, pool=pool
                )
                compile_cached = (
                    graph_delta.methods_total > 0
                    and graph_delta.methods_rebuilt == 0
                )
            else:
                compiled, compile_cached = self._compile_cached(dexfile, config)
                build = build_app(
                    dexfile,
                    config,
                    compiled=compiled,
                    cache=self.cache,
                    pool=pool,
                    phase_hook=phase_hook,
                )
                if not compile_cached:
                    self.cache.store_object(
                        self._compile_key(dexfile, config), build.dex2oat
                    )
        with self._submit_lock:
            self.builds_completed += 1
        obs.counter_add("service.builds")
        seconds = time.perf_counter() - start
        obs.histogram_observe("service.build.seconds", seconds)
        if self.ledger is not None:
            self.ledger.append(
                obs.entry_from_build(
                    build,
                    label=label,
                    wall_seconds=seconds,
                    cache_hits=self.cache.stats.hits - hits_before,
                    cache_misses=self.cache.stats.misses - misses_before,
                    graph=graph_delta.as_dict() if graph_delta is not None else None,
                )
            )
        self.flush_metrics()
        return BuildReport(
            label=label,
            build=build,
            seconds=seconds,
            compile_cached=compile_cached,
            cached_groups=build.ltbo.cached_groups if build.ltbo else 0,
            total_groups=len(build.ltbo.group_stats) if build.ltbo else 0,
            graph=graph_delta,
        )

    def build_many(self, requests: list[BuildRequest]) -> list[BuildReport]:
        """Build a batch, in order, sharing pool and caches throughout."""
        with obs.span("service.batch", builds=len(requests)):
            return [
                self.submit(req.dexfile, req.config, label=req.label)
                for req in requests
            ]

    # -- the compile cache --------------------------------------------------

    @staticmethod
    def _compile_key(dexfile: DexFile, config: CalibroConfig) -> str:
        """Content address of one dex2oat invocation: the full dex
        document plus the flags that shape compilation.  Canonically
        defined as the build graph's whole-dex node key, so incremental
        and batch builds share compile artifacts."""
        return dex_node_key(dexfile, config)

    def _compile_cached(
        self, dexfile: DexFile, config: CalibroConfig
    ) -> tuple[Dex2OatResult | None, bool]:
        cached = self.cache.lookup_object(self._compile_key(dexfile, config))
        if cached is not None:
            obs.counter_add("service.compile_cache.hits")
            return cached, True
        obs.counter_add("service.compile_cache.misses")
        return None, False

    # -- introspection ------------------------------------------------------

    def stats(self) -> dict[str, object]:
        """Service-level bookkeeping (the ``calibro serve`` footer and
        the ``--json`` report's ``service`` section).  ``config`` is the
        service's :class:`ServiceConfig` as its versioned dict
        (``config["schema_version"]`` tracks the config schema)."""
        out: dict[str, object] = {
            "schema_version": SUMMARY_SCHEMA_VERSION,
            "builds": self.builds_completed,
            "config": self.config.to_dict(),
            "cache": self.cache.stats.as_dict(),
            "shared_cache": self._shared_spec is not None,
            "pool": self.pool.stats.as_dict(),
        }
        if self.shard_executor is not None:
            out["shard"] = self.shard_executor.stats.as_dict()
        if self.graph is not None:
            out["incremental"] = True
        return out
