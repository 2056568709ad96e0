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
  one **bundle** object per (label, config) slot (key →
  compiled-method entry), so a delta build costs one store read and at
  most one write, not one per method.
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

The previous build's node keys persist as a :class:`GraphState` JSON
document next to the cache, under a **versioned schema**: a corrupt or
torn state file falls back to full-rebuild *accounting* (never a wrong
build — correctness comes from the content keys, not the state), while
a parseable state from a *newer* schema raises
:class:`~repro.core.errors.ServiceError` so mixed-version fleets fail
loudly instead of silently mis-counting.

``docs/incremental.md`` specifies the rebuild model and documents the
``service.graph.*`` metrics this module records.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro import observability as obs
from repro.compiler.compiled import CompiledMethod
from repro.compiler.driver import Dex2OatResult, compile_method, dex2oat
from repro.core.errors import ServiceError
from repro.core.patterns import ThunkCache
from repro.dex.method import DexFile, DexMethod
from repro.dex.serialize import dexfile_to_json
from repro.dex.verifier import verify_dexfile
from repro.hgraph.passes import PassManager
from repro.service.cache import publish_atomically, sweep_stale_stage_files

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.pipeline import CalibroBuild, CalibroConfig
    from repro.service.cache import OutlineCache

__all__ = [
    "GRAPH_SCHEMA_VERSION",
    "BuildGraph",
    "GraphDelta",
    "GraphState",
    "compile_dex_node",
    "config_fingerprint",
    "dex_node_key",
    "method_node_key",
]

#: Version of the persisted :class:`GraphState` document.  Bump on any
#: key addition, removal or meaning change; loaders refuse newer
#: versions (:class:`ServiceError`) and treat corrupt files as absent.
#: v2 added ``merge_key`` (the global-function-merging node); v1 states
#: still load — the key defaults to absent, so the merge node counts as
#: added on the first merging build.
GRAPH_SCHEMA_VERSION = 2

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
class GraphState:
    """The node keys of one finished build — what the *next* build
    diffs against to count reused/rebuilt/added/removed nodes."""

    #: :func:`config_fingerprint` of the build's config; a state from a
    #: different config is unusable for delta accounting.
    config_key: str
    #: Method name → method node key, in method-table order.
    methods: dict[str, str] = field(default_factory=dict)
    #: Group (chunk) node keys, partition order.
    groups: list[str] = field(default_factory=list)
    #: Whole-dex compile node key (the ``config.inlining`` fallback).
    dex_key: str = ""
    #: Merge node key (:func:`repro.core.merge.merge_node_key`); empty
    #: when the config runs no merge pass.
    merge_key: str = ""
    schema_version: int = GRAPH_SCHEMA_VERSION

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema_version": self.schema_version,
            "config_key": self.config_key,
            "methods": dict(self.methods),
            "groups": list(self.groups),
            "dex_key": self.dex_key,
            "merge_key": self.merge_key,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "GraphState":
        """Parse a persisted state document.

        A newer ``schema_version`` raises :class:`ServiceError` (the
        one *hard* failure — silently reinterpreting a future schema
        could mis-count deltas fleet-wide).  Structural damage raises
        ``ValueError`` for the loader to treat as corruption.
        """
        if not isinstance(data, dict):
            raise ValueError("graph state must be a mapping")
        version = data.get("schema_version")
        if not isinstance(version, int) or version < 1:
            raise ValueError(f"invalid graph state schema_version: {version!r}")
        if version > GRAPH_SCHEMA_VERSION:
            raise ServiceError(
                f"graph state version {version} is newer than this build "
                f"understands (max {GRAPH_SCHEMA_VERSION})"
            )
        methods = data.get("methods")
        groups = data.get("groups")
        if not isinstance(methods, dict) or not isinstance(groups, list):
            raise ValueError("graph state is structurally damaged")
        return cls(
            config_key=str(data.get("config_key", "")),
            methods={str(k): str(v) for k, v in methods.items()},
            groups=[str(g) for g in groups],
            dex_key=str(data.get("dex_key", "")),
            merge_key=str(data.get("merge_key", "")),
            schema_version=version,
        )


@dataclass
class GraphDelta:
    """What one incremental build reused versus re-executed.

    ``as_dict()`` is the ledger's ``graph`` field and the build
    report's ``graph`` section; every key is documented in
    ``docs/incremental.md``.
    """

    #: No usable prior state (first build, corrupt/missing state file,
    #: or the config moved) — every node counts as rebuilt-or-new.
    full_rebuild: bool = False
    #: The persisted state file existed but could not be parsed.
    state_corrupt: bool = False
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
    #: Node keys present now but absent from the prior state.
    nodes_added: int = 0
    #: Prior-state node keys no longer present.
    nodes_removed: int = 0
    #: Wall seconds of the delta build (graph walk + splices + rework).
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
            "state_corrupt": self.state_corrupt,
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


class BuildGraph:
    """The incremental build planner/executor for one service.

    Owns the persisted per-(label, config) :class:`GraphState`
    documents (under ``<cache_dir>/graph/`` when the cache is on disk,
    in memory otherwise) and drives delta builds against the shared
    :class:`~repro.service.cache.OutlineCache`.
    """

    def __init__(self, cache: "OutlineCache", state_dir: str | os.PathLike | None):
        self.cache = cache
        self.state_dir = Path(state_dir) if state_dir is not None else None
        self._memory_states: dict[str, GraphState] = {}
        if self.state_dir is not None:
            try:
                self.state_dir.mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                raise ServiceError(f"unusable graph state directory: {exc}") from exc
            sweep_stale_stage_files(self.state_dir, "*.tmp")

    # -- state persistence ---------------------------------------------------

    @staticmethod
    def state_key(label: str, config: "CalibroConfig") -> str:
        """One state slot per (app label, config fingerprint)."""
        h = hashlib.sha256()
        h.update(label.encode("utf-8"))
        h.update(b"\x00")
        h.update(config_fingerprint(config).encode("utf-8"))
        return h.hexdigest()

    def _state_path(self, key: str) -> Path:
        assert self.state_dir is not None
        return self.state_dir / f"{key}.json"

    def load_state(
        self, label: str, config: "CalibroConfig", delta: GraphDelta
    ) -> GraphState | None:
        """The previous build's state, or ``None`` (with the delta's
        corruption flag set when the file existed but was damaged)."""
        key = self.state_key(label, config)
        if self.state_dir is None:
            return self._memory_states.get(key)
        path = self._state_path(key)
        try:
            raw = path.read_text(encoding="utf-8")
        except FileNotFoundError:
            return None
        except OSError:
            delta.state_corrupt = True
            return None
        try:
            state = GraphState.from_dict(json.loads(raw))
        except ServiceError:
            raise  # newer schema: the hard error, never a silent fallback
        except (ValueError, TypeError):
            # Torn write or corruption: fall back to full-rebuild
            # accounting (content keys keep the build itself correct).
            delta.state_corrupt = True
            path.unlink(missing_ok=True)
            return None
        return state

    def save_state(self, label: str, config: "CalibroConfig", state: GraphState) -> None:
        key = self.state_key(label, config)
        if self.state_dir is None:
            self._memory_states[key] = state
            return
        # Two builds of one (label, config) slot may finish together —
        # front-door threads or separate processes — so each stages
        # under its own name before the atomic publish.
        publish_atomically(
            self._state_path(key),
            json.dumps(state.to_dict(), sort_keys=True).encode("utf-8"),
        )

    # -- the compile layer (method / dex nodes) ------------------------------

    def _compile_incremental(
        self,
        dexfile: DexFile,
        config: "CalibroConfig",
        delta: GraphDelta,
        bundle_key: str,
        node_keys: dict[str, str],
    ) -> tuple[Dex2OatResult, int]:
        """Assemble a :class:`Dex2OatResult` from per-method nodes,
        filling ``node_keys`` (method name → node key); returns it with
        the number of methods recompiled.

        The whole file verifies first, as in ``dex2oat``.  Reused nodes
        come from the previous build's **artifact bundle** — one cache
        object per (label, config) slot mapping method node key to
        compiled artifact, so a delta costs one store read/write
        instead of one per method.  Moved (or missing/damaged) nodes
        recompile with a *fresh per-method* thunk cache, and every
        per-method cache merges into one shared cache whose sorted
        thunk union is byte-identical to a whole-dex run's.
        """
        start = time.perf_counter()
        with obs.span("dex2oat.verify"):
            verify_dexfile(dexfile)
        methods = dexfile.all_methods()
        merged = ThunkCache() if config.cto_enabled else None
        manager = PassManager()
        compiled: list[CompiledMethod] = []
        previous_bundle = self.cache.lookup_object(bundle_key)
        if not isinstance(previous_bundle, dict):
            previous_bundle = {}  # absent, torn or polluted: rebuild below
        bundle: dict[str, tuple] = {}
        before = after = 0
        for method_id, method in enumerate(methods):
            key = method_node_key(
                method, cto=config.cto_enabled, method_id=method_id
            )
            node_keys[method.name] = key
            entry = previous_bundle.get(key)
            if not _valid_method_entry(entry):
                entry = self._compile_method(method, method_id, config, manager)
                delta.methods_rebuilt += 1
            else:
                delta.methods_reused += 1
            bundle[key] = entry
            method_compiled, mini_thunks, ir_before, ir_after = entry
            compiled.append(method_compiled)
            before += ir_before
            after += ir_after
            if merged is not None and mini_thunks is not None:
                merged.merge(mini_thunks)
        if bundle.keys() != previous_bundle.keys() or delta.methods_rebuilt:
            self.cache.store_object(bundle_key, bundle)
        if merged is not None:
            compiled.extend(merged.compiled_thunks())
        delta.methods_total = len(methods)
        return (
            Dex2OatResult(
                methods=compiled,
                cto=merged,
                compile_seconds=time.perf_counter() - start,
                ir_instructions_before=before,
                ir_instructions_after=after,
            ),
            delta.methods_rebuilt,
        )

    @staticmethod
    def _compile_method(
        method: DexMethod,
        method_id: int,
        config: "CalibroConfig",
        manager: PassManager,
    ) -> tuple[CompiledMethod, ThunkCache | None, int, int]:
        """Execute one method node with ``dex2oat``'s own per-method
        step (:func:`~repro.compiler.driver.compile_method`), against
        the node's own thunk cache."""
        thunks = ThunkCache() if config.cto_enabled else None
        compiled, before, after = compile_method(method, method_id, thunks, manager)
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
        """One incremental build: splice unchanged nodes, re-execute the
        rest, re-link, and persist the new node keys.

        The output is **byte-identical** to ``build_app(dexfile,
        config)`` from scratch — the delta only changes *how much work*
        produced those bytes (``tests/service/test_incremental.py``
        proves it under mutation streams).
        """
        from repro.core.pipeline import build_app

        delta = GraphDelta()
        start = time.perf_counter()
        with obs.span("service.graph.build", label=label, config=config.name):
            previous = self.load_state(label, config, delta)
            if previous is None or previous.config_key != config_fingerprint(config):
                previous = None
                delta.full_rebuild = True

            method_keys: dict[str, str] = {}
            dex_key = dex_node_key(dexfile, config) if config.inlining else ""
            bundle_key = f"graph:artifacts:{self.state_key(label, config)}"

            def compile_step(dexfile: DexFile, config: "CalibroConfig"):
                if not config.inlining:
                    return self._compile_incremental(
                        dexfile, config, delta, bundle_key, method_keys
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

            group_keys: list[str] = list(build.ltbo.group_keys) if build.ltbo else []
            if build.ltbo is not None:
                delta.groups_total = len(build.ltbo.group_stats)
                delta.groups_reused = len(build.ltbo.cached_indices)
                delta.groups_rebuilt = delta.groups_total - delta.groups_reused

            merge_key = build.merge.node_key if build.merge is not None else ""
            if build.merge is not None:
                delta.merge_total = 1
                delta.merge_reused = 1 if build.merge.spliced else 0
                delta.merge_rebuilt = 1 - delta.merge_reused

            new_keys = set(method_keys.values()) | set(group_keys)
            if dex_key:
                new_keys.add(dex_key)
            if merge_key:
                new_keys.add(merge_key)
            old_keys: set[str] = set()
            if previous is not None:
                old_keys = set(previous.methods.values()) | set(previous.groups)
                if previous.dex_key:
                    old_keys.add(previous.dex_key)
                if previous.merge_key:
                    old_keys.add(previous.merge_key)
            delta.nodes_added = len(new_keys - old_keys)
            delta.nodes_removed = len(old_keys - new_keys)

            self.save_state(
                label,
                config,
                GraphState(
                    config_key=config_fingerprint(config),
                    methods=method_keys,
                    groups=group_keys,
                    dex_key=dex_key,
                    merge_key=merge_key,
                ),
            )
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
        if delta.state_corrupt:
            obs.counter_add("service.graph.state_corrupt")
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
