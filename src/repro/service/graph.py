"""The keyed build dependency graph — incremental delta builds.

A Calibro build factors into a directed graph:

    dex input ──▶ compiled-method nodes ──▶ group nodes ──▶ link node

Every node carries a **content key**: a SHA-256 over exactly the
inputs that can change its output bytes (method bytecode, compile
flags, outline thresholds, format versions).  An incremental
rebuild walks the node list, re-executes only the nodes whose key
moved, and **splices** everything else from the content-addressed
:class:`~repro.service.cache.OutlineCache` — the same store the batch
service already uses, so a delta build and a warm cached build share
one artifact namespace.

Node kinds and their keys:

* **method** — one compiled method.  Key: :func:`method_node_key`
  (the method's JSON document + the CTO flag; native methods also key
  on their ``method_id`` because the JNI stub embeds it).  Sound
  because methods compile independently (the paper's own design) and
  CTO thunk labels are content-deterministic — per-method thunk caches
  merge into exactly the shared cache a whole-dex run builds
  (:meth:`~repro.core.patterns.ThunkCache.merge`).  Artifacts live in
  the slot's record (below), so a delta build costs one store read and
  at most one write, not one per method.
* **dex** — the whole-dex compile, used instead of method nodes when
  ``config.inlining`` is on (the inliner resolves callees across
  method graphs, so per-method reuse would be unsound).  Key:
  :func:`dex_node_key` — shared verbatim with the batch service's
  compile cache.
* **group** — one PlOpti partition's outlined chunk.  Key:
  :meth:`OutlineCache.group_key` (computed inside
  :func:`~repro.core.parallel.outline_partitioned`, which already
  splices cached chunks).  Partitioning is positional: editing a
  method re-keys only its group, but adding or deleting a candidate
  reshuffles every partition — all group nodes rebuild.
* **merge** — the global-function-merging decision record
  (:class:`~repro.core.merge.MergePlan`), present only when the config
  runs the ``merge`` pass.  Key: :func:`repro.core.merge.merge_node_key`
  over the post-outlining method list plus thresholds; the plan splices
  from the cache when unchanged, and applying a spliced plan reproduces
  byte-identical output.
* **link** — always re-executes (it is cheap and depends on every
  text/data byte).

The previous build is remembered as one **record** per (label, config)
slot, an object in the same cache: its method artifacts keyed by
method node key, and its group, dex and merge node keys.  A build reads
the record once, diffs against it, and stores the new one at most
once.  A slot with no record (a first build, or a record the cache
evicted, healed or rejected by format) is a full rebuild; that changes
how much work runs, never the bytes, because correctness comes from
the content keys.

``docs/incremental.md`` specifies the rebuild model and documents the
``service.graph.*`` metrics this module records.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro import observability as obs
from repro.compiler.compiled import CompiledMethod
from repro.compiler.driver import (
    Dex2OatResult,
    assemble_result,
    compile_method,
    dex2oat,
)
from repro.core.patterns import ThunkCache
from repro.dex.method import DexFile, DexMethod
from repro.dex.serialize import dexfile_to_json
from repro.dex.verifier import verify_dexfile

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.pipeline import CalibroBuild, CalibroConfig
    from repro.service.cache import OutlineCache

__all__ = [
    "BuildGraph",
    "GraphDelta",
    "compile_dex_node",
    "config_fingerprint",
    "dex_node_key",
    "method_node_key",
]

#: Key-derivation version for method nodes — bump when codegen, the
#: pass pipeline or the stored entry shape changes.
#: v2: hashes the method's ``repr`` document instead of its JSON one
#: (same content coverage — every instruction field appears in the
#: dataclass repr — at a fraction of the serialization cost).
_METHOD_KEY_VERSION = 2


def config_fingerprint(config: "CalibroConfig") -> str:
    """SHA-256 over the config's canonical JSON — two configs with equal
    fingerprints drive byte-identical builds of the same input."""
    canonical = json.dumps(config.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def method_node_key(method: DexMethod, *, cto: bool, method_id: int) -> str:
    """Content key of one compiled-method node.

    Hashes the method's full JSON document plus the CTO flag.  Native
    methods additionally key on ``method_id`` — the JNI stub embeds its
    own id (``mov x17, #id``), so an unchanged native method that
    *moved* in the method table still compiles to different bytes.
    Non-native methods are position-independent (calls relocate by
    symbol name) and deliberately exclude the id, so insertions above
    them do not invalidate their nodes.

    The document hashed is the method header plus the dataclass
    ``repr`` of its instruction list — instructions are flat frozen
    dataclasses of ints/strings/tuples, so the repr is deterministic
    and names every field, with the same content coverage as
    :func:`~repro.dex.serialize.method_to_json` at a fraction of the
    cost (this runs for every method on every delta build).
    """
    h = hashlib.sha256()
    h.update(f"graph-method:v{_METHOD_KEY_VERSION}:".encode("utf-8"))
    h.update(b"cto:" if cto else b"-:")
    if method.is_native:
        h.update(f"id={method_id}:".encode("utf-8"))
    header = (
        f"{method.name}|{method.num_registers}|{method.num_inputs}"
        f"|{method.is_native}|{method.returns_value}|"
    )
    h.update(header.encode("utf-8"))
    h.update(repr(method.code).encode("utf-8"))
    return f"method:{h.hexdigest()}"


def dex_node_key(dexfile: DexFile, config: "CalibroConfig") -> str:
    """Content key of the whole-dex compile node: the full dex document
    plus the flags that shape compilation.

    This is also the batch service's compile-cache key, so incremental
    and non-incremental builds share whole-dex compile artifacts
    (:func:`compile_dex_node`).
    """
    h = hashlib.sha256()
    h.update(b"compile:v1:")
    h.update(b"cto" if config.cto_enabled else b"-")
    h.update(b"inline" if config.inlining else b"-")
    h.update(
        json.dumps(dexfile_to_json(dexfile), sort_keys=True, separators=(",", ":"))
        .encode("utf-8")
    )
    return f"compile:{h.hexdigest()}"


def compile_dex_node(
    cache: "OutlineCache", key: str, dexfile: DexFile, config: "CalibroConfig"
) -> tuple[Dex2OatResult, int]:
    """The cached whole-dex compile under ``key`` (:func:`dex_node_key`):
    the batch service's compile cache and the graph's ``config.inlining``
    fallback.  A hit returns the stored result; a miss (or a polluted
    entry) runs ``dex2oat`` and stores it.  Returns the result and the
    methods compiled — a :data:`~repro.core.pipeline.CompileStep` once
    ``cache`` and ``key`` are bound."""
    cached = cache.lookup_object(key)
    if isinstance(cached, Dex2OatResult):
        obs.counter_add("service.compile_cache.hits")
        return cached, 0
    obs.counter_add("service.compile_cache.misses")
    result = dex2oat(dexfile, cto=config.cto_enabled, inline=config.inlining)
    cache.store_object(key, result)
    return result, len(dexfile.all_methods())


@dataclass
class GraphDelta:
    """What one incremental build reused versus re-executed.

    ``as_dict()`` is the ledger's ``graph`` field and the build
    report's ``graph`` section; every key is documented in
    ``docs/incremental.md``.
    """

    #: The slot had no record in the cache (a first build, or a record
    #: evicted, healed or of another format) — every node counts as new.
    full_rebuild: bool = False
    methods_total: int = 0
    #: Method nodes spliced from the content-addressed store.
    methods_reused: int = 0
    #: Method nodes whose key moved (or missed the store) — recompiled.
    methods_rebuilt: int = 0
    groups_total: int = 0
    #: Group nodes whose outlined chunk came from the cache.
    groups_reused: int = 0
    groups_rebuilt: int = 0
    #: The merge node (0 or 1 — only merging configs have one).
    merge_total: int = 0
    #: 1 when the merge plan was spliced from the cache.
    merge_reused: int = 0
    merge_rebuilt: int = 0
    #: Node keys present now but absent from the slot's record.
    nodes_added: int = 0
    #: The record's node keys no longer present.
    nodes_removed: int = 0
    #: Wall seconds of the delta build (record lookup, graph walk,
    #: splices, rework and record store).
    seconds: float = 0.0

    @property
    def nodes_total(self) -> int:
        """Method + group + merge nodes (the always-rebuilt link node
        and the dex input are excluded by convention)."""
        return self.methods_total + self.groups_total + self.merge_total

    @property
    def nodes_reused(self) -> int:
        return self.methods_reused + self.groups_reused + self.merge_reused

    @property
    def nodes_rebuilt(self) -> int:
        return self.methods_rebuilt + self.groups_rebuilt + self.merge_rebuilt

    def as_dict(self) -> dict[str, Any]:
        return {
            "full_rebuild": self.full_rebuild,
            "nodes_total": self.nodes_total,
            "nodes_reused": self.nodes_reused,
            "nodes_rebuilt": self.nodes_rebuilt,
            "nodes_added": self.nodes_added,
            "nodes_removed": self.nodes_removed,
            "methods_total": self.methods_total,
            "methods_reused": self.methods_reused,
            "methods_rebuilt": self.methods_rebuilt,
            "groups_total": self.groups_total,
            "groups_reused": self.groups_reused,
            "groups_rebuilt": self.groups_rebuilt,
            "merge_total": self.merge_total,
            "merge_reused": self.merge_reused,
            "merge_rebuilt": self.merge_rebuilt,
            "seconds": round(self.seconds, 4),
        }


def _valid_method_entry(entry: Any) -> bool:
    """Shape-check a cached method-node artifact — a polluted or
    hand-corrupted entry must rebuild the node, never mis-assemble."""
    return (
        isinstance(entry, tuple)
        and len(entry) == 4
        and isinstance(entry[0], CompiledMethod)
        and (entry[1] is None or isinstance(entry[1], ThunkCache))
        and isinstance(entry[2], int)
        and isinstance(entry[3], int)
    )


def _valid_record(record: Any) -> bool:
    """Shape-check a cached slot record, ``(artifacts, group_keys,
    dex_key, merge_key)``: method node key → method-node artifact, the
    group node keys in partition order, and the dex and merge node keys
    (``""`` when the config has no such node).  Any other shape (the
    bare artifact bundle older builds stored under the same key
    included) reads as absent: a full rebuild, never a mis-assembly."""
    return (
        isinstance(record, tuple)
        and len(record) == 4
        and isinstance(record[0], dict)
        and isinstance(record[1], tuple)
        and all(isinstance(key, str) for key in record[1])
        and isinstance(record[2], str)
        and isinstance(record[3], str)
    )


def _node_keys(record: tuple) -> set[str]:
    artifacts, group_keys, dex_key, merge_key = record
    return {*artifacts, *group_keys, dex_key, merge_key} - {""}


class BuildGraph:
    """The incremental build planner/executor for one service: drives
    delta builds against the shared
    :class:`~repro.service.cache.OutlineCache`, which also holds each
    (label, config) slot's record."""

    def __init__(self, cache: "OutlineCache"):
        self.cache = cache

    @staticmethod
    def record_key(label: str, config: "CalibroConfig") -> str:
        """The cache key of the record of one slot: one per (app label,
        config fingerprint)."""
        h = hashlib.sha256()
        h.update(label.encode("utf-8"))
        h.update(b"\x00")
        h.update(config_fingerprint(config).encode("utf-8"))
        return f"graph:artifacts:{h.hexdigest()}"

    # -- the compile layer (method / dex nodes) ------------------------------

    def _compile_incremental(
        self,
        dexfile: DexFile,
        config: "CalibroConfig",
        delta: GraphDelta,
        previous: dict[str, tuple],
        artifacts: dict[str, tuple],
    ) -> tuple[Dex2OatResult, int]:
        """Assemble a :class:`Dex2OatResult` from per-method nodes,
        filling ``artifacts`` (method node key → artifact) for the next
        record; returns it with the number of methods recompiled.

        The whole file verifies first, as in ``dex2oat``.  Reused nodes
        come from ``previous``, the record's artifacts.  Moved (or
        missing/damaged) nodes recompile with a *fresh per-method* thunk
        cache, and dex2oat's own assembly tail merges every per-method
        cache into one shared cache whose sorted thunk union is
        byte-identical to a whole-dex run's.
        """
        start = time.perf_counter()
        with obs.span("dex2oat.verify"):
            verify_dexfile(dexfile)
        methods = dexfile.all_methods()
        entries: list[tuple] = []
        with obs.span("dex2oat.codegen"):
            for method_id, method in enumerate(methods):
                key = method_node_key(
                    method, cto=config.cto_enabled, method_id=method_id
                )
                entry = previous.get(key)
                if not _valid_method_entry(entry):
                    entry = self._compile_method(method, method_id, config)
                    delta.methods_rebuilt += 1
                else:
                    delta.methods_reused += 1
                artifacts[key] = entry
                entries.append(entry)
        delta.methods_total = len(methods)
        result = assemble_result(
            methods,
            [entry[0] for entry in entries],
            entries,
            cto=config.cto_enabled,
            start=start,
        )
        return result, delta.methods_rebuilt

    @staticmethod
    def _compile_method(
        method: DexMethod,
        method_id: int,
        config: "CalibroConfig",
    ) -> tuple[CompiledMethod, ThunkCache | None, int, int]:
        """Execute one method node with ``dex2oat``'s own per-method
        step (:func:`~repro.compiler.driver.compile_method`), against
        the node's own thunk cache."""
        thunks = ThunkCache() if config.cto_enabled else None
        compiled, before, after = compile_method(method, method_id, thunks)
        return compiled, thunks, before, after

    # -- the full delta build ------------------------------------------------

    def build(
        self,
        dexfile: DexFile,
        config: "CalibroConfig",
        *,
        label: str = "",
        pool=None,
    ) -> tuple["CalibroBuild", GraphDelta]:
        """One incremental build: look up the slot's record, splice
        unchanged nodes, re-execute the rest, re-link, and store the new
        record when a node key moved or a node was rebuilt.

        The output is **byte-identical** to ``build_app(dexfile,
        config)`` from scratch — the delta only changes *how much work*
        produced those bytes (``tests/service/test_incremental.py``
        proves it under mutation streams).
        """
        from repro.core.pipeline import build_app

        delta = GraphDelta()
        start = time.perf_counter()
        with obs.span("service.graph.build", label=label, config=config.name):
            key = self.record_key(label, config)
            record = self.cache.lookup_object(key)
            if not _valid_record(record):
                record = None
                delta.full_rebuild = True
            previous = record[0] if record is not None else {}
            artifacts: dict[str, tuple] = {}
            dex_key = dex_node_key(dexfile, config) if config.inlining else ""

            def compile_step(dexfile: DexFile, config: "CalibroConfig"):
                if not config.inlining:
                    return self._compile_incremental(
                        dexfile, config, delta, previous, artifacts
                    )
                # The inliner resolves callees across method graphs, so
                # per-method splicing would compile against stale
                # neighbors: one all-or-nothing dex node instead.
                result, compiled = compile_dex_node(self.cache, dex_key, dexfile, config)
                delta.methods_total = len(dexfile.all_methods())
                delta.methods_rebuilt = compiled
                delta.methods_reused = delta.methods_total - compiled
                return result, compiled

            # Compile, LTBO and link through the one canonical pipeline,
            # which times the compile step in build.dex2oat: group nodes
            # splice inside outline_partitioned (via the chunk cache),
            # and the link node always re-executes.
            build = build_app(
                dexfile, config, compile_step=compile_step, cache=self.cache, pool=pool
            )

            if build.ltbo is not None:
                delta.groups_total = len(build.ltbo.group_stats)
                delta.groups_reused = build.ltbo.cached_groups
                delta.groups_rebuilt = delta.groups_total - delta.groups_reused
            if build.merge is not None:
                delta.merge_total = 1
                delta.merge_reused = 1 if build.merge.spliced else 0
                delta.merge_rebuilt = 1 - delta.merge_reused

            new_record = (
                artifacts,
                tuple(build.ltbo.group_keys) if build.ltbo else (),
                dex_key,
                build.merge.node_key if build.merge is not None else "",
            )
            new_keys = _node_keys(new_record)
            old_keys = _node_keys(record) if record is not None else set()
            delta.nodes_added = len(new_keys - old_keys)
            delta.nodes_removed = len(old_keys - new_keys)
            if record is None or new_keys != old_keys or delta.nodes_rebuilt:
                self.cache.store_object(key, new_record)
        delta.seconds = time.perf_counter() - start
        self._record_metrics(delta)
        return build, delta

    @staticmethod
    def _record_metrics(delta: GraphDelta) -> None:
        """Feed the ``service.graph.*`` registry (all names documented
        in ``docs/incremental.md`` and ``docs/observability.md``)."""
        obs.counter_add("service.graph.builds")
        if delta.full_rebuild:
            obs.counter_add("service.graph.full_rebuilds")
        obs.counter_add("service.graph.nodes", delta.nodes_total)
        obs.counter_add("service.graph.nodes_reused", delta.nodes_reused)
        obs.counter_add("service.graph.nodes_rebuilt", delta.nodes_rebuilt)
        obs.counter_add("service.graph.nodes_added", delta.nodes_added)
        obs.counter_add("service.graph.nodes_removed", delta.nodes_removed)
        obs.counter_add("service.graph.methods_reused", delta.methods_reused)
        obs.counter_add("service.graph.methods_rebuilt", delta.methods_rebuilt)
        obs.counter_add("service.graph.groups_reused", delta.groups_reused)
        obs.counter_add("service.graph.groups_rebuilt", delta.groups_rebuilt)
        obs.counter_add("service.graph.merge_reused", delta.merge_reused)
        obs.counter_add("service.graph.merge_rebuilt", delta.merge_rebuilt)
        obs.histogram_observe("service.graph.delta_seconds", delta.seconds)
