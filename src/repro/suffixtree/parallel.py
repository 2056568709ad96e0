"""Execution substrate for the paralleled suffix tree optimization (PlOpti).

Paper Section 3.4.1: candidate methods are partitioned into K groups
evenly by method count (a *random* partition — clustering was rejected
for its own overhead), one suffix tree is built per group, and the
build/detect/outline/patch work runs per tree in parallel (here the
per-group index is the suffix-array miner).

This module provides the group-parallel execution substrate: one
supervised process pool, :class:`GroupExecutor`, whose dispatch unit is
a *chunk* of ``(group index, payload)`` pairs.  Every entry point that
runs PlOpti groups is a chunking policy over it:

* :func:`map_over_groups` (library builds) sends one round-robin chunk
  per CPU-clamped job to the process-wide executor
  (:func:`shared_executor`), which a library build's ``dex2oat`` also
  sends its round-robin method chunks to once its workers run
  (:func:`shared_executor_running`);
* :class:`repro.service.WorkerPool` sends chunks of one group;
* :class:`repro.service.ShardExecutor` sends
  ``round_robin_shards(K, shards)`` chunks.

The executor owns, once each: the pool lifecycle (created lazily,
replaced by :meth:`GroupExecutor._restart`, released by
:meth:`GroupExecutor.close`), the fault ladder and trace propagation
into the children.  Children compute exactly what they are sent and
never open a cache: the service's cache lookup happens in the
supervisor, before dispatch.  A call that yields a single chunk runs
it in-process — no processes, no pickling — and so does every call
made inside a daemonic process (a ``multiprocessing.Pool`` worker),
which may not start children.  Either way the
*partitioning* benefit survives: K small trees have a much smaller
working set and far fewer candidate repeats than one global tree,
which is the component of the paper's speedup that does not depend on
thread hardware.
"""

from __future__ import annotations

import atexit
import concurrent.futures
import multiprocessing
import os
import random
import time
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass, field
from typing import Callable, Sequence, TypeVar

from repro import observability as obs
from repro.core.errors import ConfigError, ServiceError

__all__ = [
    "ExecutorStats",
    "GroupExecutor",
    "available_parallelism",
    "clamp_jobs",
    "map_over_groups",
    "partition_evenly",
    "round_robin_shards",
    "shared_executor",
    "shared_executor_running",
]

_T = TypeVar("_T")
_R = TypeVar("_R")


def available_parallelism() -> int:
    """Number of usable CPUs (best effort)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def clamp_jobs(jobs: int, groups: int) -> int:
    """``jobs`` clamped to the group count and the usable CPUs (at
    least 1) — the one clamp rule PlOpti scheduling uses."""
    return max(1, min(jobs, groups, available_parallelism()))


def partition_evenly(items: Sequence[_T], groups: int, seed: int = 0) -> list[list[_T]]:
    """Randomly partition ``items`` into ``groups`` lists of near-equal size.

    Mirrors the paper's "simple and random partition ... evenly in terms
    of method numbers".  Deterministic for a given ``seed`` so builds are
    reproducible.
    """
    if groups < 1:
        raise ConfigError("groups must be >= 1")
    indices = list(range(len(items)))
    random.Random(seed).shuffle(indices)
    buckets: list[list[_T]] = [[] for _ in range(min(groups, max(1, len(items))))]
    for rank, idx in enumerate(indices):
        buckets[rank % len(buckets)].append(items[idx])
    return [b for b in buckets if b]


def round_robin_shards(count: int, shards: int) -> list[list[int]]:
    """Deterministically assign ``count`` item indices to at most
    ``shards`` buckets, round-robin; empty buckets are dropped.

    This is the group→chunk placement of :func:`map_over_groups` and
    the shard executor (:mod:`repro.service.shard`).  Round-robin keeps
    chunk loads within one group of each other — matching the paper's
    even-by-method-count partitioning philosophy one level up — and is
    a pure function of ``(count, shards)``, so a chunked build touches
    exactly the same payloads in exactly the same per-chunk order on
    every run.
    """
    if shards < 1:
        raise ConfigError("shards must be >= 1")
    buckets: list[list[int]] = [[] for _ in range(min(shards, max(1, count)))]
    for index in range(count):
        buckets[index % len(buckets)].append(index)
    return [bucket for bucket in buckets if bucket]


# -- the supervised executor -------------------------------------------------


@dataclass
class ExecutorStats:
    """Supervision bookkeeping for one :class:`GroupExecutor`."""

    #: Worker processes the executor runs at most.
    width: int = 1
    #: Payloads routed through the executor: groups, or ``dex2oat``
    #: method chunks.
    tasks: int = 0
    #: Chunks submitted to child processes (retries included).
    dispatches: int = 0
    timeouts: int = 0
    failures: int = 0
    retries: int = 0
    restarts: int = 0
    serial_fallbacks: int = 0

    def as_dict(self) -> dict[str, int]:
        return asdict(self)


@dataclass
class _UnitResult:
    """What one dispatch unit sends back from its child process."""

    results: list = field(default_factory=list)
    #: The child tracer's snapshot (``None`` when the supervisor was
    #: not tracing), adopted by the supervisor.
    trace: obs.Trace | None = None


def _compute(worker, site, unit, chunk, fault_hook) -> _UnitResult:
    outcome = _UnitResult()
    if fault_hook is not None:
        fault_hook(site, str(unit))
    for index, payload in chunk:
        if fault_hook is not None:
            fault_hook("group", str(index))
        outcome.results.append(worker(payload))
    return outcome


def _run_unit(worker, site, unit, chunk, ctx, fault_hook) -> _UnitResult:
    """Run one dispatch unit inside a child process.

    Module-level so the pool can pickle it; ``worker`` and
    ``fault_hook`` must be module-level too.  ``ctx`` is the
    supervisor's :class:`~repro.observability.TraceContext`: the child
    then measures under its own tracer, minting a real
    ``service.pool.task`` span inside the propagated trace, and ships
    the snapshot back for :meth:`~repro.observability.Tracer.adopt`.
    """
    if ctx is None:
        return _compute(worker, site, unit, chunk, fault_hook)
    tracer = obs.Tracer(context=ctx)
    # Process-wide AND thread overlay: a fork-started child inherits
    # the forking thread's overlay (the serve executor thread's), which
    # would otherwise shadow this tracer.
    with obs.tracing(tracer), obs.thread_tracing(tracer):
        with obs.span("service.pool.task", unit=unit, groups=len(chunk)):
            outcome = _compute(worker, site, unit, chunk, fault_hook)
    outcome.trace = tracer.snapshot()
    return outcome


class GroupExecutor:
    """A persistent process pool whose dispatch unit is a chunk of groups.

    ``width`` bounds the worker processes; the pool is created lazily on
    the first call that dispatches more than one chunk and lives until
    :meth:`close` (the class is also a context manager).  ``timeout`` is
    seconds per dispatch unit (``None`` disables).

    Every dispatched unit walks one ladder: a timeout or failure
    replaces the pool (terminating its processes on timeout — a running
    unit cannot be cancelled, and a retry must not queue behind the
    zombie), the unit is retried once, and a unit that failed twice runs
    in the supervising process.  A worker that raises deterministically
    still raises there: only infrastructure failures are absorbed.

    The service hands its one concern in as a picklable function, so
    this module never imports :mod:`repro.service`: ``fault_hook``
    (``repro.service.faults.maybe_inject``) is called in the children
    as ``fault_hook(site, unit)`` once per unit and
    ``fault_hook("group", index)`` once per group.  In-process runs
    (the single-chunk path and the fallback) skip it: faults fire in
    children only.
    """

    def __init__(
        self,
        width: int,
        *,
        timeout: float | None = None,
        fault_hook: Callable[[str, str], object] | None = None,
        site: str = "pool",
    ) -> None:
        self.timeout = timeout
        self.fault_hook = fault_hook
        self.site = site
        self.stats = ExecutorStats(width=width)
        self._executor: ProcessPoolExecutor | None = None
        self._closed = False

    # -- lifecycle ----------------------------------------------------------

    @property
    def running(self) -> bool:
        """Whether the worker processes exist: from the first dispatch
        until :meth:`close` or a restart."""
        return self._executor is not None

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown()
            self._executor = None
        self._closed = True

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def _pool(self) -> ProcessPoolExecutor:
        if self._closed:
            raise ServiceError("group executor is closed")
        if self._executor is None:
            self._executor = ProcessPoolExecutor(max_workers=self.stats.width)
        return self._executor

    def _restart(self, *, terminate: bool = False) -> None:
        """Replace the pool.

        ``terminate=False`` for a pool whose worker already died
        (``BrokenProcessPool`` — nothing left to kill).
        ``terminate=True`` for the timeout path: the abandoned unit is
        still *running* in a worker, and only terminating the process
        reclaims the slot.
        """
        self.stats.restarts += 1
        obs.counter_add("service.pool.restarts")
        executor, self._executor = self._executor, None
        if executor is None:
            return
        # Read the worker processes before shutdown(), which drops them.
        processes = list((getattr(executor, "_processes", None) or {}).values())
        executor.shutdown(wait=False, cancel_futures=True)
        if terminate:
            for process in processes:
                process.terminate()

    # -- execution ----------------------------------------------------------

    def run_chunks(
        self,
        worker: Callable[[_T], _R],
        payloads: Sequence[_T],
        chunks: list[list[int]],
    ) -> list[_R]:
        """Apply ``worker`` to every payload, one dispatch unit per
        chunk of payload indices; results come back in payload order."""
        if self._closed:
            raise ServiceError("group executor is closed")
        self.stats.tasks += len(payloads)
        obs.counter_add("service.pool.tasks", len(payloads))
        units = [[(index, payloads[index]) for index in chunk] for chunk in chunks]
        if len(units) <= 1 or multiprocessing.current_process().daemon:
            outcomes = [self._run_inline(worker, u, unit) for u, unit in enumerate(units)]
        else:
            with obs.span("service.pool.map", units=len(units), groups=len(payloads)):
                futures = [
                    self._dispatch(worker, u, unit) for u, unit in enumerate(units)
                ]
                outcomes = [
                    self._collect(worker, u, unit, future)
                    for u, (unit, future) in enumerate(zip(units, futures))
                ]
        results: list = [None] * len(payloads)
        for unit, values in zip(units, outcomes):
            for (index, _payload), value in zip(unit, values):
                results[index] = value
        return results

    def _run_inline(self, worker, unit: int, chunk: list) -> list:
        with obs.span("service.pool.task", unit=unit, groups=len(chunk)):
            return [worker(payload) for _index, payload in chunk]

    def _dispatch(self, worker, unit: int, chunk: list) -> Future:
        """Submit one unit.  Its own submit stamp feeds the wait
        histogram from a done-callback, the moment the future settles —
        into the tracer that dispatched it: the callback runs on the
        executor's thread, where a build's thread-local tracer is not
        current and a later build's may be."""
        self.stats.dispatches += 1
        obs.counter_add("service.pool.dispatches")
        tracer = obs.current_tracer()
        ctx = tracer.child_context() if tracer is not None else None
        try:
            future = self._pool().submit(
                _run_unit, worker, self.site, unit, chunk, ctx, self.fault_hook
            )
        except BrokenProcessPool as exc:
            # An earlier unit's crash broke the pool while this
            # submission was landing: hand the break to the ladder as a
            # pre-failed future.
            future = Future()
            future.set_exception(exc)
            return future
        submitted = time.perf_counter()

        def _record(_future: Future) -> None:
            if tracer is not None:
                tracer.histogram_observe(
                    "service.pool.wait_seconds", time.perf_counter() - submitted
                )

        future.add_done_callback(_record)
        return future

    def _collect(self, worker, unit: int, chunk: list, future: Future) -> list:
        """The ladder: timeout/failure → restart → one retry →
        in-process fallback."""
        for attempt in (0, 1):
            try:
                outcome = future.result(timeout=self.timeout)
            except concurrent.futures.TimeoutError:
                self.stats.timeouts += 1
                obs.counter_add("service.pool.timeouts")
                self._restart(terminate=True)
            except concurrent.futures.CancelledError:
                # A sibling unit's restart cancelled this queued one.
                self._count_failure()
            except BrokenProcessPool:
                self._count_failure()
                self._restart()
            except Exception:
                self._count_failure()
            else:
                return self._absorb(outcome)
            if attempt == 0:
                self.stats.retries += 1
                obs.counter_add("service.pool.retries")
                future = self._dispatch(worker, unit, chunk)
        self.stats.serial_fallbacks += 1
        obs.counter_add("service.pool.serial_fallbacks")
        return self._run_inline(worker, unit, chunk)

    def _count_failure(self) -> None:
        self.stats.failures += 1
        obs.counter_add("service.pool.failures")

    def _absorb(self, outcome: _UnitResult) -> list:
        """Fold a healthy unit's child trace into the active one."""
        tracer = obs.current_tracer()
        if tracer is not None and outcome.trace is not None:
            if outcome.trace.spans:
                tracer.adopt(outcome.trace)
            else:
                tracer.merge_registry(outcome.trace)
        return outcome.results


# -- the library entry point -------------------------------------------------

_SHARED: GroupExecutor | None = None


def shared_executor() -> GroupExecutor:
    """The process-wide :class:`GroupExecutor` of library builds (PlOpti
    groups and ``dex2oat`` method chunks): one worker per usable CPU,
    created on first use and reused for the life of the process, so
    repeated builds stop paying process start-up."""
    global _SHARED
    if _SHARED is None:
        _SHARED = GroupExecutor(available_parallelism())
        atexit.register(_SHARED.close)
    return _SHARED


def shared_executor_running() -> bool:
    """Whether the :func:`shared_executor`'s workers already run, so a
    dispatch to them pays no process start-up."""
    return _SHARED is not None and _SHARED.running


def map_over_groups(
    worker: Callable[[_T], _R],
    groups: Sequence[_T],
    jobs: int = 1,
) -> list[_R]:
    """Apply ``worker`` to each group, in parallel when possible.

    ``jobs`` is clamped to the group count and the usable CPUs
    (:func:`clamp_jobs`); the groups go out as one round-robin chunk
    per job to the :func:`shared_executor`.  One job runs in-process.
    ``worker`` must be a module-level function (picklability) when
    ``jobs > 1``.  Results are returned in group order.
    """
    if jobs < 1:
        raise ConfigError("jobs must be >= 1")
    chunks = round_robin_shards(len(groups), clamp_jobs(jobs, len(groups)))
    return shared_executor().run_chunks(worker, groups, chunks)
