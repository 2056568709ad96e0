"""Multi-process sharded group builds: one round-robin chunk per shard.

:class:`ShardExecutor` is the coarse chunking policy over the shared
:class:`~repro.suffixtree.parallel.GroupExecutor`: the K PlOpti groups
are placed on ``shards`` worker processes by
:func:`~repro.suffixtree.parallel.round_robin_shards`, one submission
per shard instead of one per group, and the shard runs its groups'
suffix-tree / suffix-array work locally.  The executor supplies the
rest — the fault ladder (per shard batch: ``timeout`` is per batch, the
``CALIBRO_FAULTS`` site ``shard:<s>`` names shard ``s`` and
``group:<i>`` names global group ``i``), trace propagation, the
shared-cache hook and the ``service.pool.*`` metrics.

Results are re-assembled by global group index, so the engine-invariant
``(length, first)`` ordering contract downstream of
``outline_partitioned`` is untouched: **sharded builds are
byte-identical to single-process builds** (held by
``tests/service/test_shard.py`` across all four paper configurations).
``BuildService(ServiceConfig(shards=4))`` / ``calibro serve --shards 4``
plug it in as the ``pool`` collaborator.
"""

from __future__ import annotations

from typing import Callable, Sequence, TypeVar

from repro.core.errors import ServiceError
from repro.service import faults
from repro.service.cache import SharedCacheSpec
from repro.suffixtree.parallel import GroupExecutor, round_robin_shards

__all__ = ["ShardExecutor"]

_T = TypeVar("_T")
_R = TypeVar("_R")


class ShardExecutor(GroupExecutor):
    """Supervises ``shards`` shard processes; a drop-in ``pool``
    collaborator for ``outline_partitioned``/``build_app``/
    ``BuildService``.

    ``timeout`` is per *shard batch* seconds (``None`` disables) — a
    shard owns many groups, so callers typically scale it up from their
    per-group budget.  ``shards=1`` (or a single payload) runs the chunk
    in-process: no processes, no pickling, same bytes.  ``cache`` (a
    :class:`~repro.service.cache.SharedCacheSpec`) gives every shard
    process a read-through/write-back handle on the shared disk cache.
    """

    def __init__(
        self,
        *,
        shards: int,
        timeout: float | None = None,
        cache: SharedCacheSpec | None = None,
    ) -> None:
        if shards < 1:
            raise ServiceError("shards must be >= 1")
        super().__init__(
            shards, timeout=timeout, cache=cache,
            fault_hook=faults.maybe_inject, site="shard",
        )
        self.shards = shards

    def map_groups(
        self, worker: Callable[[_T], _R], payloads: Sequence[_T]
    ) -> list[_R]:
        """Apply ``worker`` to every payload across the shards, returning
        results in payload order (the determinism contract)."""
        return self.run_chunks(
            worker, payloads, round_robin_shards(len(payloads), self.shards)
        )
