"""Per-layer metrics of a traced run.

Times (``_s``) are per-request medians of a layer's self time: the
span minus the part its child spans cover (``stats.self_times``).  An
executor span's self time further excludes the group compute its
workers report in ``OutlineStats`` (divided by the executor's width);
that compute is the ``outline`` layer's share of the request.
Counts are per-request medians too, except those read from the
``status`` op over the window: cache lookups and stores per request,
server rejections and errors and executor retries as totals.  Ratios
divide window totals.  A layer that a workload bypasses reads zero.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from perfbench import stats

#: name -> unit, in report order (BENCHMARK.json lists the same).
UNITS = {
    "client.encode_s": "s", "client.request_bytes": "bytes", "client.response_bytes": "bytes",
    "server.decode_s": "s", "server.queue_wait_s": "s", "server.self_s": "s",
    "server.rejected": "count", "server.errors": "count",
    "service.self_s": "s", "service.compile_key_s": "s",
    "cache.lookups": "count", "cache.hit_ratio": "ratio", "cache.lookup_s": "s",
    "cache.stores": "count", "cache.store_s": "s", "cache.disk_bytes": "bytes",
    "graph.self_s": "s", "graph.methods_rebuilt": "count", "graph.groups_rebuilt": "count",
    "graph.reuse_ratio": "ratio",
    "compiler.dex2oat_s": "s", "compiler.methods": "count",
    "candidates.select_s": "s", "candidates.methods": "count",
    "parallel.self_s": "s", "parallel.groups": "count", "parallel.cached_groups": "count",
    "executor.map_s": "s", "executor.tasks": "count", "executor.payload_bytes": "bytes",
    "executor.overhead_s": "s", "executor.retries": "count",
    "outline.mine_s": "s", "outline.select_s": "s", "outline.rewrite_s": "s",
    "outline.repeats_enumerated": "count", "outline.accept_ratio": "ratio",
    "merge.merge_s": "s", "merge.key_s": "s", "merge.folded": "count", "merge.merged": "count",
    "merge.plan_reused": "count",
    "linker.link_s": "s", "linker.text_bytes": "bytes",
    "unattributed_s": "s", "trace_overhead_pct": "%", "traced_requests": "count",
}

#: span name -> per-request metric its self time adds to.
_SELF_METRIC = {
    "dexfile_to_json": "client.encode_s",
    "encode_message@repro.service.client": "client.encode_s",
    "AsyncBuildServer._parse_build": "server.decode_s",
    "BuildService.submit": "service.self_s",
    "dex_node_key": "service.compile_key_s",
    "OutlineCache.lookup_chunk": "cache.lookup_s",
    "OutlineCache.lookup_object": "cache.lookup_s",
    "OutlineCache.store_chunk": "cache.store_s",
    "OutlineCache.store_object": "cache.store_s",
    "BuildGraph.build": "graph.self_s",
    "dex2oat": "compiler.dex2oat_s",
    "BuildGraph._compile_method": "compiler.dex2oat_s",
    "select_candidates": "candidates.select_s",
    "outline_partitioned": "parallel.self_s",
    "merge_functions": "merge.merge_s",
    "merge_node_key": "merge.key_s",
    "link": "linker.link_s",
}

#: span attribute -> per-request count it adds to.
_COUNTS = {
    ("encode_message@repro.service.client", "bytes"): "client.request_bytes",
    ("decode_message", "bytes"): "client.response_bytes",
    ("dex2oat", "methods"): "compiler.methods",
    ("BuildGraph._compile_method", "methods"): "compiler.methods",
    ("select_candidates", "methods"): "candidates.methods",
    ("outline_partitioned", "groups"): "parallel.groups",
    ("outline_partitioned", "cached_groups"): "parallel.cached_groups",
    ("merge_functions", "folded"): "merge.folded",
    ("merge_functions", "merged"): "merge.merged",
    ("merge_functions", "plan_reused"): "merge.plan_reused",
    ("link", "text_bytes"): "linker.text_bytes",
}


def _delta(before: dict | None, after: dict | None, *path: str) -> int:
    def get(doc):
        for part in path:
            if not isinstance(doc, dict):
                return 0
            doc = doc.get(part, 0)
        return doc if isinstance(doc, (int, float)) else 0

    return get(after) - get(before)


def request_layers(spans: list[dict]) -> dict[str, dict[str, float]]:
    """Request id -> per-request metric values (self times per layer,
    counts, and the outline compute reported by executor workers)."""
    per: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    parse_end: dict[str, float] = {}
    execute_start: dict[str, float] = {}
    for span, self_s in zip(spans, stats.self_times(spans)):
        rid = span.get("request")
        if rid is None:
            continue
        values = per[rid]
        name, layer = span["name"], span["layer"]
        if layer == "executor":
            worker = min(span.get("worker_seconds", 0.0), self_s)
            self_s -= worker
            values["outline"] += worker
            values["executor.map_s"] += span["end"] - span["start"]
            values["executor.overhead_s"] += self_s
            values["executor.tasks"] += span.get("tasks", 0)
            values["executor.payload_bytes"] += span.get("payload_bytes", 0)
            for key in ("mine_s", "select_s", "rewrite_s"):
                values[f"outline.{key}"] += span.get(key, 0.0)
            values["outline.repeats_enumerated"] += span.get("enumerated", 0)
            values["outlined"] += span.get("outlined", 0)
        values[layer] += self_s
        metric = _SELF_METRIC.get(name)
        if metric is not None:
            values[metric] += self_s
        for (span_name, attr), metric in _COUNTS.items():
            if span_name == name:
                values[metric] += span.get(attr, 0)
        if name == "AsyncBuildServer._parse_build":
            parse_end[rid] = max(parse_end.get(rid, 0.0), span["end"])
        elif name == "AsyncBuildServer._execute":
            execute_start[rid] = min(execute_start.get(rid, span["start"]), span["start"])
    for rid, start in execute_start.items():
        if rid in parse_end:
            per[rid]["server.queue_wait_s"] = max(0.0, start - parse_end[rid])
    return per


_LAYERS = ("client", "server", "service", "cache", "graph", "compiler", "candidates",
           "parallel", "executor", "outline", "merge", "linker")


def per_layer_metrics(workload: str, plain, traced) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of a traced run (``traced``), with the
    tracing overhead measured against the untraced run (``plain``)."""
    ok = [r for r in traced.records if r.outcome == stats.OK]
    per = request_layers(traced.spans)
    values: dict[str, float] = {}
    per_request_names = [n for n in UNITS if n not in (
        "server.rejected", "server.errors", "cache.lookups", "cache.hit_ratio",
        "cache.stores", "cache.disk_bytes", "graph.reuse_ratio", "outline.accept_ratio",
        "executor.retries", "trace_overhead_pct", "traced_requests", "unattributed_s",
        "graph.methods_rebuilt", "graph.groups_rebuilt", "server.self_s")]
    rows = [per.get(r.rid, {}) for r in ok]
    for name in per_request_names:
        values[name] = statistics.median([row.get(name, 0.0) for row in rows])
    values["server.self_s"] = statistics.median([row.get("server", 0.0) for row in rows])
    values["unattributed_s"] = statistics.median([
        (r.end - r.start) - sum(per.get(r.rid, {}).get(layer, 0.0) for layer in _LAYERS)
        for r in ok
    ])
    enumerated = sum(row.get("outline.repeats_enumerated", 0) for row in per.values())
    outlined = sum(row.get("outlined", 0) for row in per.values())
    values["outline.accept_ratio"] = outlined / enumerated if enumerated else 0.0
    graphs = [r.summary["graph"] for r in ok if r.summary and "graph" in r.summary]
    values["graph.methods_rebuilt"] = statistics.median(
        [g["methods_rebuilt"] for g in graphs]) if graphs else 0.0
    values["graph.groups_rebuilt"] = statistics.median(
        [g["groups_rebuilt"] for g in graphs]) if graphs else 0.0
    nodes = sum(g["nodes_total"] for g in graphs)
    values["graph.reuse_ratio"] = sum(g["nodes_reused"] for g in graphs) / nodes if nodes else 0.0
    before, after = traced.status_before, traced.status_after
    lookups = _delta(before, after, "service", "cache", "hits") + _delta(
        before, after, "service", "cache", "misses")
    values["cache.lookups"] = lookups / len(ok)
    values["cache.hit_ratio"] = (
        _delta(before, after, "service", "cache", "hits") / lookups if lookups else 0.0)
    values["cache.stores"] = _delta(before, after, "service", "cache", "stores") / len(ok)
    values["cache.disk_bytes"] = float(traced.cache_bytes)
    values["server.rejected"] = float(_delta(before, after, "rejected"))
    values["server.errors"] = float(_delta(before, after, "errors"))
    values["executor.retries"] = float(
        _delta(before, after, "service", "pool", "retries")
        + _delta(before, after, "service", "shard", "retries"))
    plain_p50 = _p50(plain)
    values["trace_overhead_pct"] = 100.0 * (_p50(traced) / plain_p50 - 1.0)
    values["traced_requests"] = float(len(ok))
    return {name: (float(values[name]), unit) for name, unit in UNITS.items()}


def _p50(phase) -> float:
    return stats.percentile(
        stats.request_latencies((r.outcome, r.end - r.start) for r in phase.records), 0.5
    )
