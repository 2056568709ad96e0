"""The batch build service: persistent pool + content-addressed caching.

``build_app`` is a one-shot: every call recompiles, re-mines every
group, and (pre-service) forked a fresh process pool.  A fleet
build farm does the opposite — it builds *many* apps, *repeatedly*,
with most inputs unchanged between runs.  :class:`BuildService` is that
amortizing layer:

* one persistent group executor for the service lifetime — a
  :class:`~repro.service.pool.WorkerPool`, or a
  :class:`~repro.service.shard.ShardExecutor` at ``shards >= 2``
  (retry + serial fallback per dispatch unit);
* an :class:`~repro.service.cache.OutlineCache` keyed on group content,
  so unchanged methods across rebuilds and identical groups across apps
  skip the mining work;
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
from functools import partial

from repro import __version__, observability as obs
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
from repro.service.graph import BuildGraph, GraphDelta, compile_dex_node, dex_node_key
from repro.service.pool import WorkerPool
from repro.service.protocol import PROTOCOL_VERSION
from repro.service.shard import ShardExecutor

__all__ = ["BuildReport", "BuildRequest", "BuildService", "build_info_labels"]


def build_info_labels() -> dict[str, str]:
    """The static ``calibro_build_info`` labelset: package version and
    wire protocol version (see ``docs/observability.md``)."""
    return {"version": __version__, "protocol": str(PROTOCOL_VERSION)}


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
    #: Delta accounting when the service ran incrementally
    #: (``ServiceConfig(incremental=True)``); ``None`` otherwise.
    graph: GraphDelta | None = None

    @property
    def compile_cached(self) -> bool:
        """No method compiled in this build: the compile cache had this
        exact dex+flags, or every method node spliced."""
        return self.build.methods_compiled == 0

    @property
    def cached_groups(self) -> int:
        """PlOpti groups served from the outline cache."""
        return self.build.ltbo.cached_groups if self.build.ltbo else 0

    @property
    def total_groups(self) -> int:
        """PlOpti groups in this build."""
        return len(self.build.ltbo.group_stats) if self.build.ltbo else 0

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
    labelset).  The service owns one group executor, ``pool``: the
    :class:`~repro.service.shard.ShardExecutor` (one chunk per shard)
    at ``shards >= 2``, otherwise the per-group
    :class:`~repro.service.pool.WorkerPool` — output bytes are
    identical either way.
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
            self.config.cache_dir, max_bytes=self.config.cache_max_bytes
        )
        # incremental=True routes every submit through the keyed build
        # dependency graph (repro.service.graph): per-node reuse instead
        # of the all-or-nothing whole-dex compile cache.  Each app's
        # previous build is a record in this same cache.
        self.graph = BuildGraph(self.cache) if self.config.incremental else None
        # shards >= 2 dispatches one round-robin chunk per shard process
        # (repro.service.shard) instead of one group per chunk — coarser
        # dispatch units, byte-identical output.
        self.pool: WorkerPool | ShardExecutor = (
            ShardExecutor(shards=self.config.shards)
            if self.config.shards is not None and self.config.shards >= 2
            else WorkerPool(max_workers=self.config.max_workers)
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
        pipeline phase starts (``"dex2oat"``/``"ltbo"``/``"merge"``/
        ``"link"``, or ``"graph.delta"`` on the incremental path): the mechanism
        behind the serve protocol's streamed ``progress`` events.
        """
        if self._closed:
            raise ServiceError("build service is closed")
        config = config or CalibroConfig.baseline()
        start = time.perf_counter()
        # This thread's tallies, not the service-wide stats: builds on
        # other front-door threads share the cache, and every lookup of
        # this build runs here (executor children never open a cache).
        hits_before, misses_before = self.cache.thread_lookups()
        graph_delta: GraphDelta | None = None
        with obs.span("service.build", label=label or config.name, config=config.name):
            if self.graph is not None:
                if phase_hook is not None:
                    phase_hook("graph.delta")
                build, graph_delta = self.graph.build(
                    dexfile, config, label=label or config.name, pool=self.pool
                )
            else:
                build = build_app(
                    dexfile,
                    config,
                    compile_step=partial(
                        compile_dex_node, self.cache, dex_node_key(dexfile, config)
                    ),
                    cache=self.cache,
                    pool=self.pool,
                    phase_hook=phase_hook,
                )
        with self._submit_lock:
            self.builds_completed += 1
        obs.counter_add("service.builds")
        seconds = time.perf_counter() - start
        obs.histogram_observe("service.build.seconds", seconds)
        if self.ledger is not None:
            hits_after, misses_after = self.cache.thread_lookups()
            self.ledger.append(
                obs.entry_from_build(
                    build,
                    label=label,
                    wall_seconds=seconds,
                    cache_hits=hits_after - hits_before,
                    cache_misses=misses_after - misses_before,
                    graph=graph_delta.as_dict() if graph_delta is not None else None,
                )
            )
        self.flush_metrics()
        return BuildReport(label=label, build=build, seconds=seconds, graph=graph_delta)

    def build_many(self, requests: list[BuildRequest]) -> list[BuildReport]:
        """Build a batch, in order, sharing pool and caches throughout."""
        with obs.span("service.batch", builds=len(requests)):
            return [
                self.submit(req.dexfile, req.config, label=req.label)
                for req in requests
            ]

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
            "pool": self.pool.stats.as_dict(),
        }
        if self.graph is not None:
            out["incremental"] = True
        return out
