"""The build service's persistent worker pool: one group per dispatch unit.

:class:`WorkerPool` is the per-group chunking policy over the shared
:class:`~repro.suffixtree.parallel.GroupExecutor`, which owns the
process pool, the timeout → restart → retry → in-process fallback
ladder, trace propagation into the children, the shared-cache hook and
the ``service.pool.*`` metrics (``docs/service.md``).  Each group is its
own unit, so ``timeout`` is per group and the ``CALIBRO_FAULTS`` site
``pool:<i>`` names group ``i`` (:mod:`repro.service.faults`).

``max_workers=1`` (the default on a single-CPU host) runs every group
in-process — no processes, no pickling.
"""

from __future__ import annotations

from typing import Callable, Sequence, TypeVar

from repro.core.errors import ServiceError
from repro.service import faults
from repro.service.cache import SharedCacheSpec
from repro.suffixtree.parallel import GroupExecutor, available_parallelism

__all__ = ["WorkerPool"]

_T = TypeVar("_T")
_R = TypeVar("_R")


class WorkerPool(GroupExecutor):
    """A persistent process pool with timeout, retry and serial fallback.

    ``max_workers=None`` sizes the pool to the host's usable CPUs; a
    resolved width of 1 means pure in-process execution.  ``timeout``
    is per-group seconds (``None`` disables).  ``cache`` (a
    :class:`~repro.service.cache.SharedCacheSpec`) serves outline
    payloads from the shared disk cache inside the worker children.
    """

    def __init__(
        self,
        *,
        max_workers: int | None = None,
        timeout: float | None = None,
        cache: SharedCacheSpec | None = None,
    ) -> None:
        resolved = max_workers if max_workers is not None else available_parallelism()
        if resolved < 1:
            raise ServiceError("max_workers must be >= 1")
        super().__init__(
            resolved, timeout=timeout, cache=cache,
            fault_hook=faults.maybe_inject, site="pool",
        )
        self.max_workers = resolved

    def map_groups(
        self, worker: Callable[[_T], _R], payloads: Sequence[_T]
    ) -> list[_R]:
        """Apply ``worker`` to every payload, in order, robustly — the
        ``pool`` collaborator of
        :func:`repro.core.parallel.outline_partitioned`."""
        indices = list(range(len(payloads)))
        chunks = [[index] for index in indices] if self.max_workers > 1 else [indices]
        return self.run_chunks(worker, payloads, chunks)
