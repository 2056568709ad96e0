"""PlOpti — the paralleled suffix tree optimization (paper §3.4.1).

"Firstly, we simply partition the candidate methods into K groups evenly
in terms of method numbers ... a simple and random partition instead of
clustering ... Secondly, we build a suffix tree for each group in
parallel.  Thirdly, we detect repetitive code sequences, outline the
binary code and patch PC-relative addressing instructions per suffix
tree in parallel."

The trade-off the paper measures: build time drops sharply (Table 6,
+489.5% → +70.8%) while reduction shrinks a little (Table 4, 19.19% →
16.40%) because repeats shared *across* groups are found independently
per group — each group pays for its own copy of the outlined function,
and repeats whose occurrences are split between groups may fall under
the benefit threshold in both.

Two optional collaborators extend this for the build service
(:mod:`repro.service`), both duck-typed so this module stays below the
service layer:

* ``cache`` — an outline cache with ``group_key(payload)``,
  ``lookup_chunk(key, prefix)`` and ``store_chunk(key, prefix, result)``;
  cached groups skip the mining work entirely (see
  :class:`repro.service.OutlineCache`);
* ``pool`` — an executor with ``map_groups(worker, payloads)``; used
  instead of :func:`repro.suffixtree.parallel.map_over_groups` (see
  :class:`repro.service.WorkerPool` and
  :class:`repro.service.ShardExecutor`, the per-group and per-shard
  chunking policies over the same supervised executor).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import observability as obs
from repro.compiler.compiled import CompiledMethod
from repro.core.errors import ConfigError
from repro.core.outline import (
    DEFAULT_MAX_LENGTH,
    DEFAULT_MIN_LENGTH,
    DEFAULT_MIN_SAVED,
    GroupOutlineResult,
    OutlineStats,
    outline_group,
)
from repro.suffixtree.parallel import clamp_jobs, map_over_groups, partition_evenly

__all__ = ["OutlinePayload", "ParallelOutlineResult", "outline_partitioned"]

#: One group's complete work order: everything :func:`outline_group`
#: needs, in a picklable tuple — ``(candidates, hot_names, min_length,
#: max_length, min_saved, symbol_prefix)``.  The cache key is
#: derived from exactly these fields (see ``repro/service/cache.py``).
OutlinePayload = tuple


@dataclass
class ParallelOutlineResult:
    """Combined result across all K groups."""

    rewritten: dict[int, CompiledMethod]
    outlined: list[CompiledMethod]
    group_stats: list[OutlineStats] = field(default_factory=list)
    #: Number of groups served from the outline cache (0 without one).
    cached_groups: int = 0
    #: Content key per group (``OutlineCache.group_key`` order-aligned
    #: with ``group_stats``); empty when no cache was supplied.  The
    #: build dependency graph (:mod:`repro.service.graph`) records these
    #: as its chunk node keys.
    group_keys: list[str] = field(default_factory=list)
    #: Indices of the groups served from the cache (subset of
    #: ``range(len(group_stats))``; empty without a cache).
    cached_indices: list[int] = field(default_factory=list)

    @property
    def total_occurrences(self) -> int:
        return sum(s.occurrences_replaced for s in self.group_stats)

    @property
    def total_outlined_functions(self) -> int:
        return sum(s.repeats_outlined for s in self.group_stats)


def _worker(payload: OutlinePayload) -> GroupOutlineResult:
    candidates, hot_names, min_length, max_length, min_saved, prefix = payload
    return outline_group(
        candidates,
        hot_names=hot_names,
        min_length=min_length,
        max_length=max_length,
        min_saved=min_saved,
        symbol_prefix=prefix,
    )


def outline_partitioned(
    candidates: list[tuple[int, CompiledMethod]],
    groups: int,
    *,
    hot_names: frozenset[str] = frozenset(),
    min_length: int = DEFAULT_MIN_LENGTH,
    max_length: int = DEFAULT_MAX_LENGTH,
    min_saved: int = DEFAULT_MIN_SAVED,
    jobs: int | None = None,
    seed: int = 0,
    symbol_prefix: str = "MethodOutliner",
    cache=None,
    pool=None,
) -> ParallelOutlineResult:
    """Outline with K per-group repeat-mining indexes.

    ``groups=1`` degenerates to the single global index.  ``jobs``
    defaults to ``groups`` and is *clamped to the CPU count* whether
    defaulted or explicit — asking for 64 jobs on a 4-core host
    schedules 4, not 64 (the clamped value is recorded as the
    ``plopti.jobs`` gauge).  ``symbol_prefix`` namespaces the outlined
    functions (multi-round callers pass a per-round prefix to keep
    symbols unique).  ``cache``/``pool`` are the optional build-service
    collaborators described in the module docstring.
    """
    if groups < 1:
        raise ConfigError("groups must be >= 1")
    if jobs is not None and jobs < 1:
        raise ConfigError("jobs must be >= 1")
    with obs.span("ltbo.partition"):
        partitions = partition_evenly(candidates, groups, seed=seed)
    payloads: list[OutlinePayload] = [
        (part, hot_names, min_length, max_length, min_saved, f"{symbol_prefix}$g{gi}")
        for gi, part in enumerate(partitions)
    ]
    # The documented clamp applies to *every* jobs value, explicit or
    # defaulted: an explicit jobs=64 on a 4-core host schedules 4 jobs,
    # and the plopti.jobs gauge records the clamped truth.
    effective_jobs = clamp_jobs(jobs if jobs is not None else groups, groups)
    obs.gauge_set("plopti.jobs", effective_jobs)
    with obs.span("ltbo.outline"):
        results: list[GroupOutlineResult | None] = [None] * len(payloads)
        misses = list(range(len(payloads)))
        keys: list[str] = []
        if cache is not None:
            # Hash each payload exactly once; the same key serves the
            # cache lookup, the store on miss, and the graph's chunk
            # node bookkeeping (via ``group_keys`` on the result).
            keys = [cache.group_key(p) for p in payloads]
            misses = []
            for index, payload in enumerate(payloads):
                hit = cache.lookup_chunk(keys[index], payload[5])
                if hit is not None:
                    results[index] = hit
                else:
                    misses.append(index)
        if misses:
            miss_payloads = [payloads[i] for i in misses]
            if pool is not None:
                computed = pool.map_groups(_worker, miss_payloads)
            else:
                computed = map_over_groups(_worker, miss_payloads, jobs=effective_jobs)
            for index, result in zip(misses, computed):
                results[index] = result
                if cache is not None:
                    cache.store_chunk(keys[index], payloads[index][5], result)
    miss_set = set(misses)
    combined = ParallelOutlineResult(
        rewritten={},
        outlined=[],
        cached_groups=len(payloads) - len(misses),
        group_keys=keys,
        cached_indices=[i for i in range(len(payloads)) if i not in miss_set],
    )
    for result in results:
        assert result is not None
        combined.rewritten.update(result.rewritten)
        combined.outlined.extend(result.outlined)
        combined.group_stats.append(result.stats)
    _flush_observability(partitions, combined)
    return combined


def _flush_observability(
    partitions: list[list], combined: ParallelOutlineResult
) -> None:
    """Feed the counter registry from every group's stats.

    The ``ltbo.*`` counters describe this build's output, so groups
    served from the cache count too.  Those groups ran nowhere in this
    build: they open no span (:func:`~repro.core.outline.outline_group`
    times the computed ones where they run) and are counted in
    ``ltbo.cached_groups``.
    """
    obs.counter_add("plopti.partitions", len(partitions))
    obs.gauge_max(
        "plopti.peak_partition_size", max((len(p) for p in partitions), default=0)
    )
    if combined.cached_groups:
        obs.counter_add("ltbo.cached_groups", combined.cached_groups)
    for stats in combined.group_stats:
        obs.counter_add("ltbo.candidate_methods", stats.candidate_methods)
        obs.counter_add("ltbo.sequence_symbols", stats.sequence_symbols)
        obs.counter_add("ltbo.tree_nodes", stats.tree_nodes)
        obs.counter_add("ltbo.repeats_enumerated", stats.repeats_enumerated)
        obs.counter_add("ltbo.repeats_outlined", stats.repeats_outlined)
        obs.counter_add("ltbo.repeats_rejected", stats.repeats_rejected)
        obs.counter_add("ltbo.occurrences_replaced", stats.occurrences_replaced)
        obs.counter_add("ltbo.instructions_saved", stats.instructions_saved)
        obs.counter_add("ltbo.bytes_saved", stats.bytes_saved)
