"""Spans recorded from the benchmark's own code, around the layers'
public entry points.

``install()`` replaces each entry point in ``ENTRY_POINTS`` with a
wrapper that records one span per call: name, layer, start, end,
parent span, pid and request id.  A name bound into a caller by
``from ... import`` is wrapped at the caller's binding (``link`` and
``dex2oat`` in ``repro.core.pipeline``), because replacing the
defining module's attribute would not reach that caller.  A missing
attribute raises, so a renamed entry point fails the traced run
instead of reading zero.

Spans stay in memory and are written once, by ``dump()``, when the
process ends.  Some wrappers also attach counts read from the entry
point's arguments or result (group results, merge stats, text size);
nothing inside the program is re-instrumented.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import pickle
import threading
import time
from typing import Any, Callable

#: (module, attribute path, layer).  The module is where the caller
#: looks the name up at call time.
ENTRY_POINTS = (
    ("repro.service.client", "dexfile_to_json", "client"),
    ("repro.service.client", "encode_message", "client"),
    ("repro.service.client", "decode_message", "client"),
    ("repro.service.server", "AsyncBuildServer._parse_build", "server"),
    ("repro.service.server", "AsyncBuildServer._execute", "server"),
    ("repro.service.server", "encode_message", "server"),
    ("repro.service.build", "BuildService.submit", "service"),
    ("repro.service.build", "dex_node_key", "service"),
    ("repro.service.cache", "OutlineCache.group_key", "cache"),
    ("repro.service.cache", "OutlineCache.lookup_chunk", "cache"),
    ("repro.service.cache", "OutlineCache.lookup_object", "cache"),
    ("repro.service.cache", "OutlineCache.store_chunk", "cache"),
    ("repro.service.cache", "OutlineCache.store_object", "cache"),
    ("repro.service.graph", "BuildGraph.build", "graph"),
    ("repro.core.pipeline", "dex2oat", "compiler"),
    ("repro.service.graph", "BuildGraph._compile_method", "compiler"),
    ("repro.core.candidates", "select_candidates", "candidates"),
    ("repro.core.parallel", "outline_partitioned", "parallel"),
    ("repro.core.parallel", "map_over_groups", "executor"),
    ("repro.service.pool", "WorkerPool.map_groups", "executor"),
    ("repro.service.shard", "ShardExecutor.map_groups", "executor"),
    ("repro.core.merge", "merge_functions", "merge"),
    ("repro.core.merge", "merge_node_key", "merge"),
    ("repro.core.pipeline", "link", "linker"),
)

#: Entry points each workload is predicted to reach (the coverage
#: guard).  Outline work runs in executor workers and is read from the
#: returned ``OutlineStats``, so it has no span of its own.
_CLIENT = {"dexfile_to_json", "encode_message@repro.service.client", "decode_message"}
_SERVER = {"AsyncBuildServer._parse_build", "AsyncBuildServer._execute",
           "encode_message@repro.service.server", "BuildService.submit"}
_BUILD = {"select_candidates", "outline_partitioned", "merge_functions",
          "merge_node_key", "link"}
EXPECTED = {
    "cold_builds": _BUILD | {"dex2oat", "map_over_groups"},
    "serve_warm": _CLIENT | _SERVER | _BUILD | {
        "dex_node_key", "OutlineCache.group_key", "OutlineCache.lookup_chunk",
        "OutlineCache.lookup_object"},
    "serve_edits": _CLIENT | _SERVER | _BUILD | {
        "BuildGraph.build", "BuildGraph._compile_method", "ShardExecutor.map_groups",
        "OutlineCache.group_key", "OutlineCache.lookup_chunk",
        "OutlineCache.lookup_object", "OutlineCache.store_chunk",
        "OutlineCache.store_object"},
}


def span_key(module: str, attr: str) -> str:
    """The name a span records: the attribute path, qualified by module
    where two entry points share a name."""
    names = [a for _m, a, _l in ENTRY_POINTS]
    return f"{attr}@{module}" if names.count(attr) > 1 else attr


class Recorder:
    """Per-process span store.  Spans recorded in a forked child (an
    executor worker inherits the wrappers) are dropped: only the
    installing process writes its spans."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.spans: list[dict[str, Any]] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        #: Server build id -> request id, for events encoded by build id.
        self.build_requests: dict[str, str] = {}

    # -- request identity ---------------------------------------------------

    @property
    def request(self) -> str | None:
        return getattr(self._local, "request", None)

    @request.setter
    def request(self, value: str | None) -> None:
        self._local.request = value

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- recording ----------------------------------------------------------

    def call(self, name: str, layer: str, fn: Callable, args, kwargs,
             request: str | None = None, attrs: Callable | None = None):
        if os.getpid() != self.pid:
            return fn(*args, **kwargs)
        with self._lock:
            span_id = next(self._ids)
        stack = self._stack()
        parent = stack[-1] if stack else None
        outer_request = self.request
        if request is not None:
            self.request = request
        stack.append(span_id)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            span = {
                "id": span_id, "parent": parent, "pid": self.pid,
                "thread": threading.get_ident(), "name": name, "layer": layer,
                "start": start, "end": end, "request": self.request,
            }
            if request is not None:
                self.request = outer_request
            with self._lock:
                self.spans.append(span)
        if attrs is not None:
            span.update(attrs(args, kwargs, result))
        return result

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"pid": self.pid, "spans": self.spans}, fh)


# -- per-entry-point request ids and counts ----------------------------------


def _trace_id(data) -> str | None:
    trace = data.get("trace") if isinstance(data, dict) else None
    return trace.get("trace_id") if isinstance(trace, dict) else None


def _group_attrs(name: str):
    """Counts for an executor map: tasks, pickled payload bytes, and the
    compute the workers report in each group's ``OutlineStats``."""
    from repro.suffixtree.parallel import available_parallelism

    def attrs(args, kwargs, result):
        if name == "map_over_groups":
            payloads = args[1] if len(args) > 1 else kwargs["groups"]
            jobs = args[2] if len(args) > 2 else kwargs.get("jobs", 1)
            width = min(jobs, available_parallelism())
        else:
            payloads = args[2] if len(args) > 2 else kwargs["payloads"]
            executor = args[0]
            width = executor.shards if name.startswith("Shard") else executor.max_workers
        tasks = len(payloads)
        # A lone payload runs inline in every executor.
        width = 1 if tasks <= 1 else max(1, min(width, tasks))
        stats = [r.stats for r in result]
        compute = sum(s.build_seconds + s.search_seconds + s.rewrite_seconds for s in stats)
        return {
            "tasks": tasks,
            "payload_bytes": len(pickle.dumps(list(payloads))),
            "worker_seconds": compute / width,
            "mine_s": sum(s.build_seconds for s in stats),
            "select_s": sum(s.search_seconds for s in stats),
            "rewrite_s": sum(s.rewrite_seconds for s in stats),
            "enumerated": sum(s.repeats_enumerated for s in stats),
            "outlined": sum(s.repeats_outlined for s in stats),
        }

    return attrs


def _attrs_for(recorder: Recorder, name: str):
    if name == "encode_message@repro.service.client":
        return lambda a, k, r: {"bytes": len(r)}
    if name == "decode_message":
        return lambda a, k, r: {"bytes": len(a[0])}
    if name == "dex2oat":
        return lambda a, k, r: {"methods": len(a[0].all_methods())}
    if name == "BuildGraph._compile_method":
        return lambda a, k, r: {"methods": 1}
    if name == "select_candidates":
        return lambda a, k, r: {"methods": r.candidate_count}
    if name == "outline_partitioned":
        return lambda a, k, r: {"groups": len(r.group_stats), "cached_groups": r.cached_groups}
    if name in ("map_over_groups", "WorkerPool.map_groups", "ShardExecutor.map_groups"):
        return _group_attrs(name)
    if name == "merge_functions":
        return lambda a, k, r: {
            "folded": r.stats.functions_folded,
            "merged": r.stats.functions_merged,
            "plan_reused": int(r.spliced),
        }
    if name == "link":
        return lambda a, k, r: {"text_bytes": r.text_size}
    if name == "AsyncBuildServer._parse_build":
        def job_attrs(a, k, r):
            if r.context is not None:
                recorder.build_requests[r.build_id] = r.context.trace_id
            return {}
        return job_attrs
    return None


def _request_for(recorder: Recorder, name: str):
    """How a top-level server entry point learns its request id (the
    trace id the client sent in the request's ``TraceContext``)."""
    if name == "AsyncBuildServer._parse_build":
        return lambda a, k: _trace_id(a[1])
    if name == "AsyncBuildServer._execute":
        return lambda a, k: a[1].context.trace_id if a[1].context is not None else None
    if name == "encode_message@repro.service.server":
        return lambda a, k: recorder.build_requests.get(a[0].get("build"))
    return None


def _wrap(recorder: Recorder, fn: Callable, name: str, layer: str) -> Callable:
    attrs = _attrs_for(recorder, name)
    request_for = _request_for(recorder, name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        request = request_for(args, kwargs) if request_for is not None else None
        return recorder.call(name, layer, fn, args, kwargs, request=request, attrs=attrs)

    return wrapper


def install(recorder: Recorder, layers: set[str] | None = None) -> None:
    """Wrap every entry point (of ``layers``, when given).  Raises
    ``AttributeError`` when an entry point no longer exists."""
    for module_name, attr, layer in ENTRY_POINTS:
        if layers is not None and layer not in layers:
            continue
        module = importlib.import_module(module_name)
        owner: Any = module
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        name = span_key(module_name, attr)
        if isinstance(owner, type):
            if leaf not in owner.__dict__:
                raise AttributeError(f"{module_name}.{attr} is not defined there")
            raw = owner.__dict__[leaf]
        else:
            raw = getattr(owner, leaf)
        if isinstance(raw, staticmethod):
            setattr(owner, leaf, staticmethod(_wrap(recorder, raw.__func__, name, layer)))
        else:
            setattr(owner, leaf, _wrap(recorder, raw, name, layer))


def load(path: str) -> list[dict[str, Any]]:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["spans"]


def coverage_gaps(workload: str, spans: list[dict[str, Any]]) -> list[str]:
    """Predicted entry points of ``workload`` that recorded no span."""
    seen = {span["name"] for span in spans}
    return sorted(EXPECTED[workload] - seen)
