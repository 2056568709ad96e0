"""Group partitioning and the parallel map substrate."""

from __future__ import annotations

import hashlib
import multiprocessing
from dataclasses import replace

import pytest

import repro.suffixtree.parallel as par
from repro.core import CalibroConfig, build_app
from repro.suffixtree import available_parallelism, map_over_groups, partition_evenly


def _double_first(group):
    return group[0] * 2


def _triple(value):
    return value * 3


def test_partition_even_sizes():
    items = list(range(100))
    parts = partition_evenly(items, 8)
    assert sum(len(p) for p in parts) == 100
    sizes = [len(p) for p in parts]
    assert max(sizes) - min(sizes) <= 1
    assert sorted(x for p in parts for x in p) == items


def test_partition_deterministic_in_seed():
    items = list(range(40))
    assert partition_evenly(items, 4, seed=7) == partition_evenly(items, 4, seed=7)
    assert partition_evenly(items, 4, seed=7) != partition_evenly(items, 4, seed=8)


def test_partition_is_random_not_contiguous():
    """The paper chose a *random* partition; a contiguous split would
    keep the generation-order locality."""
    items = list(range(64))
    parts = partition_evenly(items, 2, seed=1)
    assert parts[0] != items[:32]


def test_partition_more_groups_than_items():
    parts = partition_evenly([1, 2], 8)
    assert sum(len(p) for p in parts) == 2
    assert all(p for p in parts)


def test_partition_rejects_zero_groups():
    with pytest.raises(ValueError):
        partition_evenly([1], 0)


def test_map_over_groups_serial_path():
    assert map_over_groups(lambda g: sum(g), [[1, 2], [3, 4]], jobs=1) == [3, 7]


def test_map_over_groups_preserves_order():
    groups = [[i] for i in range(10)]
    assert map_over_groups(_double_first, groups, jobs=4) == [i * 2 for i in range(10)]


def test_map_over_groups_rejects_bad_jobs():
    with pytest.raises(ValueError):
        map_over_groups(lambda g: g, [[1]], jobs=0)


def test_available_parallelism_positive():
    assert available_parallelism() >= 1


@pytest.mark.parametrize("width", [1, 2])
@pytest.mark.parametrize("entry", ["map_over_groups", "WorkerPool", "ShardExecutor"])
def test_every_entry_point_runs_both_paths(monkeypatch, entry, width):
    """Each chunking policy takes the process path at width 2 and the
    in-process path at width 1, whatever the host's CPU count (patched
    for ``map_over_groups``, which clamps its jobs to it)."""
    from repro.service import ShardExecutor, WorkerPool

    monkeypatch.setattr(par, "available_parallelism", lambda: 2)
    payloads = list(range(7))
    if entry == "map_over_groups":
        executor = par.GroupExecutor(2)
        monkeypatch.setattr(par, "_SHARED", executor)

        def run():
            return map_over_groups(_triple, payloads, jobs=width)
    else:
        executor = (
            WorkerPool(max_workers=width)
            if entry == "WorkerPool"
            else ShardExecutor(shards=width)
        )

        def run():
            return executor.map_groups(_triple, payloads)

    with executor:
        assert run() == [3 * n for n in payloads]
        forked = executor._executor is not None
    assert forked == (width > 1)
    assert executor.stats.tasks == len(payloads)
    assert executor.stats.serial_fallbacks == 0


def _plopti_digest(dexfile, jobs=None) -> str:
    config = replace(CalibroConfig.cto_ltbo_plopti(8), jobs=jobs)
    return hashlib.sha256(build_app(dexfile, config).oat.to_bytes()).hexdigest()


def test_builds_inside_daemonic_processes_run_in_process(monkeypatch, small_app):
    """A ``multiprocessing.Pool`` worker is daemonic and may not start
    children, so a default-``jobs`` build there runs every compile chunk
    and group in-process, and makes the in-process bytes."""
    monkeypatch.setattr(par, "available_parallelism", lambda: 2)
    expected = _plopti_digest(small_app.dexfile, jobs=1)
    with multiprocessing.get_context("fork").Pool(1) as pool:
        digest = pool.apply_async(_plopti_digest, (small_app.dexfile,))
        assert digest.get(timeout=120) == expected
