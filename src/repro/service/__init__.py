"""The Calibro build service (tentpole of the service-layer PR).

Batch builds behind a small, validated API: a persistent worker pool, a
content-addressed outline/compile cache with disk persistence, and
versioned per-build reports.  See ``docs/service.md`` for the cache-key
definition, eviction policy and failure semantics.

>>> from repro.service import BuildService, ServiceConfig, BuildRequest
>>> with BuildService(ServiceConfig(cache_dir="/tmp/calibro-cache")) as svc:
...     reports = svc.build_many([BuildRequest(dexfile, label="app")])

Long-running, multi-client deployments go through the async front door
instead: an :class:`AsyncBuildServer` listening on a local socket, the
schema-versioned JSONL protocol (:mod:`repro.service.protocol`) and the
synchronous :class:`CalibroClient` — ``calibro serve --listen`` /
``calibro submit`` on the command line.
"""

from repro.service.build import (
    BuildReport,
    BuildRequest,
    BuildService,
    build_info_labels,
)
from repro.service.cache import (
    DEFAULT_MAX_BYTES,
    CacheStats,
    OutlineCache,
    SharedCacheSpec,
    fingerprint_methods,
)
from repro.service.client import BuildResult, CalibroClient, PendingBuild
from repro.service.config import SERVICE_CONFIG_SCHEMA_VERSION, ServiceConfig
from repro.service.faults import FaultPlan, armed
from repro.service.graph import (
    GRAPH_SCHEMA_VERSION,
    BuildGraph,
    GraphDelta,
    GraphState,
)
from repro.service.pool import WorkerPool
from repro.service.protocol import (
    PROTOCOL_VERSION,
    BuildFailed,
    OverloadedError,
    ProtocolError,
)
from repro.service.server import AsyncBuildServer, serve_in_background
from repro.service.shard import ShardExecutor

__all__ = [
    "AsyncBuildServer",
    "BuildFailed",
    "BuildGraph",
    "BuildReport",
    "BuildRequest",
    "BuildResult",
    "BuildService",
    "CacheStats",
    "CalibroClient",
    "DEFAULT_MAX_BYTES",
    "FaultPlan",
    "GRAPH_SCHEMA_VERSION",
    "GraphDelta",
    "GraphState",
    "OutlineCache",
    "OverloadedError",
    "PROTOCOL_VERSION",
    "PendingBuild",
    "ProtocolError",
    "SERVICE_CONFIG_SCHEMA_VERSION",
    "ServiceConfig",
    "ShardExecutor",
    "SharedCacheSpec",
    "WorkerPool",
    "armed",
    "build_info_labels",
    "fingerprint_methods",
    "serve_in_background",
]
