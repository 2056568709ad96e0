"""The ``calibro`` command line interface.

Staged workflow (artifacts between every stage, like the real pipeline)::

    calibro gen Wechat --scale 0.3 -o wechat.dex.json
    calibro compile wechat.dex.json -o wechat.pkg --cto
    calibro analyze wechat.pkg
    calibro outline wechat.pkg -o wechat.out.pkg --groups 8
    calibro link wechat.out.pkg -o wechat.oat
    calibro disasm wechat.oat --method 'MethodOutliner$g0$0'
    calibro run wechat.oat --entry 'LWechat/Main;->entry0' --args 20,7 \\
        --workload Wechat --scale 0.3
    calibro profile wechat.oat --workload Wechat --scale 0.3 -o profile.json
    calibro build wechat.dex.json -o full.oat --groups 8 \\
        --hot-profile profile.json --trace build.trace.json
    calibro trace build.trace.json

One-shot ``build`` fuses compile/outline/link; ``gen``'s workloads are
deterministic, so ``run``/``profile`` can regenerate the matching native
handlers from ``--workload``/``--scale``.  ``build``/``outline``/``run``
accept ``--trace OUT.json`` to capture an observability span trace;
``calibro trace`` renders it as a phase tree with percentages.

Cross-build metrics ride the same artifacts: ``build --ledger`` /
``serve --ledger`` append one durable record per build to a JSONL
ledger, ``calibro history`` summarizes a ledger's per-config
trajectory (``--plot`` appends reduction sparklines), ``calibro
compare A B`` diffs two traces or two ledgers and exits ``1`` on a
regression, and ``serve --metrics-file`` keeps a Prometheus exposition
file fresh while the service runs.  Distributed tracing rides the same
flags: a traced ``calibro submit --trace`` merges the server's span
tree into one client→server→shard trace, ``--trace-chrome`` (and
``calibro trace --chrome``) export Chrome trace-event JSON for
Perfetto, and ``calibro top SOCK`` renders a running front door's
queue, tenants and live per-build span trees.  Every command and flag
is documented in ``docs/cli.md`` (kept in sync by
``tests/test_cli_docs.py``).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from typing import Callable

from repro import observability as obs
from repro.compiler.package import CompilationPackage
from repro.core.errors import CalibroError, ConfigError
from repro.core.hotfilter import HotFunctionFilter
from repro.core.pipeline import CalibroConfig, build_app
from repro.core.staged import compile_stage, link_stage, outline_stage
from repro.dex.serialize import load_dexfile, save_dexfile
from repro.oat.oatfile import OatFile
from repro.suffixtree.parallel import available_parallelism

__all__ = ["main"]


def _load_oat(path: str) -> OatFile:
    with open(path, "rb") as fh:
        return OatFile.from_bytes(fh.read())


@contextlib.contextmanager
def _maybe_trace(args):
    """Honour ``--trace out.json`` / ``--trace-chrome out.json``: run
    the command under a tracer and persist the span trace (native
    JSON, Chrome trace-event JSON, or both) afterwards."""
    path = getattr(args, "trace", None)
    chrome_path = getattr(args, "trace_chrome", None)
    if not path and not chrome_path:
        yield
        return
    from repro.observability import write_chrome, write_json

    # The trace is written *after* the work; surface a bad path before
    # spending a whole build on it.
    for out in (path, chrome_path):
        if not out:
            continue
        try:
            open(out, "a", encoding="utf-8").close()
        except OSError as exc:
            raise SystemExit(f"error: cannot write trace file: {exc}")

    with obs.tracing() as tracer:
        yield
    snapshot = tracer.snapshot(command=args.command)
    if path:
        write_json(snapshot, path)
        print(f"trace -> {path} (inspect with: calibro trace {path})")
    if chrome_path:
        write_chrome(snapshot, chrome_path)
        print(
            f"chrome trace -> {chrome_path} "
            f"(load in Perfetto or chrome://tracing)"
        )


def _add_trace_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace",
        metavar="OUT.json",
        help="write a span trace (phase tree + counters) as JSON",
    )
    parser.add_argument(
        "--trace-chrome",
        metavar="OUT.json",
        help="write the span trace in Chrome trace-event format "
             "(load in Perfetto or chrome://tracing)",
    )


def _input_label(path: str) -> str:
    """The app label an input path implies: its basename, minus the
    ``.json`` / ``.dex`` suffixes (``apps/wechat.dex.json`` → ``wechat``)."""
    label = os.path.basename(path)
    for suffix in (".json", ".dex"):
        if label.endswith(suffix):
            label = label[: -len(suffix)]
    return label


def _native_handlers(args) -> dict[str, Callable[[list[int]], int]]:
    """Regenerate the deterministic native handlers for a workload."""
    if not getattr(args, "workload", None):
        return {}
    from repro.workloads import app_spec, generate_app

    app = generate_app(app_spec(args.workload, args.scale))
    return app.native_handlers


# -- commands ------------------------------------------------------------------


def _cmd_gen(args) -> int:
    from repro.workloads import app_spec, generate_app

    app = generate_app(app_spec(args.app, args.scale))
    save_dexfile(app.dexfile, args.output)
    print(
        f"generated {args.app} @ scale {args.scale}: "
        f"{len(app.dexfile.all_methods())} methods -> {args.output}"
    )
    print(f"entry points: {', '.join(app.entry_points)}")
    return 0


def _cmd_compile(args) -> int:
    dexfile = load_dexfile(args.input)
    package = compile_stage(dexfile, cto=not args.no_cto, inline=args.inline)
    package.save(args.output)
    print(
        f"compiled {len(package.methods)} methods "
        f"({'CTO on' if package.cto_enabled else 'CTO off'}), "
        f"text {package.text_size} bytes -> {args.output}"
    )
    return 0


def _cmd_outline(args) -> int:
    package = CompilationPackage.load(args.input)
    hot_filter = None
    if args.hot_profile:
        with open(args.hot_profile, encoding="utf-8") as fh:
            profile = json.load(fh)
        hot_filter = HotFunctionFilter.from_profile(profile, coverage=args.coverage)
    before = package.text_size
    with _maybe_trace(args):
        package = outline_stage(
            package,
            groups=args.groups,
            hot_filter=hot_filter,
            min_length=args.min_length,
            min_saved=args.min_saved,
            seed=args.seed,
            rounds=args.rounds,
        )
    package.save(args.output)
    info = package.annotations["outline"]
    print(
        f"outlined: {info['outlined_functions']} functions, "
        f"{info['occurrences_replaced']} occurrences, "
        f"text {before} -> {package.text_size} bytes "
        f"({1 - package.text_size / before:.2%}) -> {args.output}"
    )
    return 0


def _cmd_link(args) -> int:
    package = CompilationPackage.load(args.input)
    oat = link_stage(package)
    with open(args.output, "wb") as fh:
        fh.write(oat.to_bytes())
    print(
        f"linked {len(oat.methods)} methods: text {oat.text_size}B "
        f"data {oat.data_size}B -> {args.output}"
    )
    return 0


def _build_config(args) -> CalibroConfig:
    """The :class:`CalibroConfig` implied by ``build`` flags (validated
    at construction — bad values exit before any work starts)."""
    hot_filter = None
    if args.hot_profile:
        with open(args.hot_profile, encoding="utf-8") as fh:
            hot_filter = HotFunctionFilter.from_profile(
                json.load(fh), coverage=args.coverage
            )
    parts = []
    if not args.no_cto:
        parts.append("CTO")
    if not args.no_ltbo:
        parts.append("LTBO")
        if args.groups > 1:
            parts.append("PlOpti")
        if hot_filter is not None:
            parts.append("HfOpti")
    if args.merging:
        parts.append("Merge")
    return CalibroConfig(
        cto_enabled=not args.no_cto,
        ltbo_enabled=not args.no_ltbo,
        parallel_groups=args.groups,
        hot_filter=hot_filter,
        merging=args.merging,
        name="+".join(parts) if parts else "baseline",
    )


def _cmd_build(args) -> int:
    dexfile = load_dexfile(args.input)
    config = _build_config(args)
    if args.incremental and not args.cache_dir:
        raise ConfigError(
            "--incremental requires --cache-dir (each app's previous "
            "build and the outlined chunks live in that cache)"
        )
    label = args.label or _input_label(args.input)
    if args.cache_dir:
        # Cached (and optionally incremental) one-shot: route through
        # the build service so the delta build, the ledger's graph
        # field and the metrics all share one code path with serve.
        from repro.service import BuildService, ServiceConfig

        with _maybe_trace(args):
            with BuildService(
                ServiceConfig(
                    cache_dir=args.cache_dir,
                    incremental=args.incremental,
                    ledger=args.ledger or None,
                )
            ) as service:
                report = service.submit(dexfile, config, label=label)
        build = report.build
        oat = build.oat
        with open(args.output, "wb") as fh:
            fh.write(oat.to_bytes())
        if args.json:
            print(json.dumps(report.summary(), indent=1))
        else:
            note = ""
            if report.graph is not None:
                note = (
                    f" ({report.graph.nodes_reused}/{report.graph.nodes_total} "
                    f"nodes reused)"
                )
            print(
                f"built {args.output}: text {oat.text_size}B, "
                f"{len(oat.methods)} methods{note}"
            )
        return 0
    with _maybe_trace(args):
        build = build_app(dexfile, config)
    oat = build.oat
    with open(args.output, "wb") as fh:
        fh.write(oat.to_bytes())
    if args.ledger:
        from repro.observability import BuildLedger, entry_from_build

        BuildLedger(args.ledger).append(entry_from_build(build, label=label))
    if args.json:
        print(build.to_json(indent=1))
    else:
        print(f"built {args.output}: text {oat.text_size}B, {len(oat.methods)} methods")
    return 0


def _serve_config(args) -> CalibroConfig:
    """The pipeline config ``serve``/``submit`` builds with."""
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            config = CalibroConfig.from_dict(json.load(fh))
    else:
        config = CalibroConfig.cto_ltbo_plopti(groups=args.groups)
    if getattr(args, "merging", False) and not config.merging:
        config = config.with_merging()
    return config


def _cmd_serve(args) -> int:
    from repro.service import BuildRequest, BuildService, ServiceConfig

    config = _serve_config(args)
    service_config = ServiceConfig(
        cache_dir=args.cache_dir,
        cache_max_bytes=args.cache_mb * 1024 * 1024,
        max_workers=args.jobs,
        shards=args.shards,
        ledger=args.ledger,
        metrics_path=args.metrics_file,
        incremental=args.incremental,
    )
    if args.listen:
        if args.inputs:
            raise ConfigError(
                "--listen mode takes no positional inputs; clients submit "
                "builds over the socket (calibro submit)"
            )
        return _serve_listen(args, service_config, config)
    if not args.inputs:
        raise ConfigError("batch mode needs at least one input dex (or --listen)")
    if not args.outdir:
        raise ConfigError("batch mode needs -o/--outdir for the .oat outputs")
    os.makedirs(args.outdir, exist_ok=True)
    requests = [
        BuildRequest(load_dexfile(path), config, label=_input_label(path))
        for path in args.inputs
    ]
    service = BuildService(service_config)
    # The exporter renders the active tracer's registries; a bare
    # --metrics-file (no --trace) still needs one installed.
    own_tracer = (
        obs.tracing()
        if args.metrics_file and not args.trace
        else contextlib.nullcontext()
    )
    # Service closes innermost so its final metrics emit still sees the
    # tracer the outer contexts installed.
    with own_tracer, _maybe_trace(args), service:
        reports = service.build_many(requests)
        for report in reports:
            out = os.path.join(args.outdir, f"{report.label}.oat")
            with open(out, "wb") as fh:
                fh.write(report.build.oat.to_bytes())
        stats = service.stats()
    if args.json:
        print(json.dumps(
            {
                "schema_version": stats["schema_version"],
                "builds": [r.summary() for r in reports],
                "service": stats,
            },
            indent=1,
        ))
        return 0
    for report in reports:
        compile_note = "hit" if report.compile_cached else "miss"
        graph_note = ""
        if report.graph is not None:
            graph_note = (
                f", {report.graph.nodes_reused}/{report.graph.nodes_total} "
                f"nodes reused"
            )
        print(
            f"{report.label}: text {report.build.oat.text_size}B in "
            f"{report.seconds:.3f}s (compile cache {compile_note}, "
            f"{report.cached_groups}/{report.total_groups} groups cached"
            f"{graph_note})"
        )
    cache = stats["cache"]
    pool = stats["pool"]
    print(
        f"served {stats['builds']} builds: outline cache "
        f"{cache['hits']}/{cache['hits'] + cache['misses']} hits, "
        f"pool {pool['tasks']} tasks "
        f"({pool['retries']} retries, {pool['serial_fallbacks']} serial fallbacks)"
    )
    if args.ledger:
        print(f"ledger -> {args.ledger}")
    if args.metrics_file:
        print(f"metrics -> {args.metrics_file}")
    return 0


def _serve_listen(args, service_config, config) -> int:
    """``calibro serve --listen SOCK``: the async multi-tenant front
    door.  Runs until a client sends ``shutdown`` (or Ctrl-C)."""
    import asyncio

    from repro.service import PROTOCOL_VERSION, AsyncBuildServer, BuildService

    service = BuildService(service_config)
    server = AsyncBuildServer(
        service,
        args.listen,
        queue_depth=args.queue_depth,
        tenant_quota=args.tenant_quota,
        max_concurrent=args.max_concurrent,
        flush_interval=args.flush_interval,
        default_config=config,
    )
    print(
        f"listening on {args.listen} (protocol v{PROTOCOL_VERSION}, "
        f"queue {args.queue_depth}, quota {args.tenant_quota}/tenant); "
        f"submit with: calibro submit {args.listen} APP.dex.json -o APP.oat"
    )
    with _maybe_trace(args), service:
        try:
            asyncio.run(server.serve())
        except KeyboardInterrupt:
            pass
        stats = server.stats()
    if args.json:
        print(json.dumps(stats, indent=1))
        return 0
    print(
        f"served {stats['results']} builds for "
        f"{len(stats['tenants'])} tenants ({stats['accepted']} accepted, "
        f"{stats['rejected']} rejected, {stats['cancelled']} cancelled, "
        f"{stats['errors']} errors)"
    )
    if args.ledger:
        print(f"ledger -> {args.ledger}")
    if args.metrics_file:
        print(f"metrics -> {args.metrics_file}")
    return 0


def _cmd_submit(args) -> int:
    from repro.service import CalibroClient

    client = CalibroClient(args.socket, tenant=args.tenant, timeout=args.timeout)
    if args.status:
        print(json.dumps(client.status(), indent=1))
        return 0
    if args.cancel:
        ok = client.cancel(args.cancel)
        print(f"cancel {args.cancel}: {'cancelled' if ok else 'not queued'}")
        return 0 if ok else 1
    if args.shutdown:
        client.shutdown()
        print("server draining")
        return 0
    if not args.input or not args.output:
        raise ConfigError(
            "submit needs INPUT and -o/--output "
            "(or one of --status / --cancel / --shutdown)"
        )
    dexfile = load_dexfile(args.input)
    config = None
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            config = CalibroConfig.from_dict(json.load(fh))
    label = args.label or _input_label(args.input)

    def on_progress(phase: str) -> None:
        if not args.json:
            print(f"  {phase}")

    with _maybe_trace(args):
        tracer = obs.current_tracer()
        if tracer is not None:
            # Traced submit: open a client-side span, propagate its
            # context to the server (client.build derives it), ask for
            # the server's trace document back and graft it in — one
            # distributed client→server→shard trace in the output.
            from repro.observability import Trace

            with obs.span("service.client.build", label=label):
                result = client.build(
                    dexfile, config, label=label, on_progress=on_progress,
                    want_trace=True,
                )
                if result.trace is not None:
                    tracer.adopt(Trace.from_dict(result.trace))
        else:
            result = client.build(
                dexfile, config, label=label, on_progress=on_progress
            )
    with open(args.output, "wb") as fh:
        fh.write(result.oat_bytes)
    if args.json:
        print(json.dumps(
            {"build": result.build_id, "summary": result.summary}, indent=1
        ))
    else:
        summary = result.summary
        print(
            f"built {args.output} via {args.socket} ({result.build_id}): "
            f"text {summary.get('text_size')}B in {summary.get('seconds')}s"
        )
    return 0


def _render_top(socket_path: str, stats: dict) -> str:
    """The ``calibro top`` screen: front-door occupancy plus one block
    per in-flight build (phase, age, live span tree)."""
    lines = [
        f"calibro top — {socket_path} "
        f"(protocol v{stats.get('protocol_version', '?')})",
        f"queued {stats.get('queued', 0)}/{stats.get('queue_depth', '?')}  "
        f"running {stats.get('active', 0)}/{stats.get('max_concurrent', '?')}  "
        f"quota {stats.get('tenant_quota', '?')}/tenant",
        f"accepted {stats.get('accepted', 0)}  "
        f"results {stats.get('results', 0)}  "
        f"rejected {stats.get('rejected', 0)}  "
        f"cancelled {stats.get('cancelled', 0)}  "
        f"errors {stats.get('errors', 0)}",
    ]
    tenants = stats.get("tenants") or {}
    if tenants:
        lines.append("tenants: " + "; ".join(
            f"{name} {book.get('inflight', 0)} in-flight "
            f"({book.get('accepted', 0)} accepted)"
            for name, book in tenants.items()
        ))
    builds = stats.get("builds") or []
    if not builds:
        lines.append("no builds in flight")
        return "\n".join(lines)
    lines.append("")

    def visit(node: dict, depth: int) -> None:
        lines.append(
            f"    {'  ' * depth}{node.get('name', '?')} "
            f"{node.get('seconds', 0.0):.3f}s"
        )
        for child in node.get("children") or []:
            visit(child, depth + 1)

    for entry in builds:
        trace_id = entry.get("trace_id", "")
        note = f"  trace {trace_id}" if trace_id else ""
        lines.append(
            f"{entry.get('build', '?')}  {entry.get('tenant', '-')}  "
            f"{entry.get('label') or '-'}  {entry.get('state', '?')}  "
            f"phase={entry.get('phase') or '-'}  "
            f"{entry.get('seconds', 0.0):.2f}s{note}"
        )
        for node in entry.get("spans") or []:
            visit(node, 0)
    return "\n".join(lines)


def _cmd_top(args) -> int:
    import time

    from repro.service import CalibroClient

    client = CalibroClient(args.socket, timeout=args.timeout)
    try:
        while True:
            stats = client.status()
            if args.json:
                print(json.dumps(stats, indent=1))
            else:
                if args.watch and sys.stdout.isatty():
                    print("\x1b[2J\x1b[H", end="")
                print(_render_top(args.socket, stats))
            if not args.watch:
                return 0
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


def _cmd_analyze(args) -> int:
    from repro.analysis import estimate_redundancy, length_census
    from repro.reporting import ascii_bars, pct

    package = CompilationPackage.load(args.input)
    report = estimate_redundancy(package.methods, args.input)
    print(
        f"{report.total_instructions} instructions; estimated outlining "
        f"potential {pct(report.estimated_ratio)} "
        f"({report.instructions_saved} instructions)"
    )
    print(ascii_bars(length_census(report), width=40, title="length vs repeats:"))
    return 0


def _cmd_disasm(args) -> int:
    from repro.isa import disassemble

    oat = _load_oat(args.input)
    names = [args.method] if args.method else sorted(oat.methods)
    for name in names:
        if name not in oat.methods:
            print(f"no method {name!r}", file=sys.stderr)
            return 1
        base = oat.entry_address(name)
        print(f"{name} @ {base:#x}:")
        for line in disassemble(oat.method_code(name), base):
            print(f"  {line}")
        print()
    return 0


def _cmd_run(args) -> int:
    from repro.runtime import Emulator

    oat = _load_oat(args.input)
    call_args = [int(x) for x in args.args.split(",")] if args.args else []
    emulator = Emulator(oat, native_handlers=_native_handlers(args) or None)
    # The emulator needs the dex arity table for JNI dispatch; natives
    # without a workload fall back to returning zero.
    if args.workload:
        from repro.workloads import app_spec, generate_app

        app = generate_app(app_spec(args.workload, args.scale))
        emulator = Emulator(oat, app.dexfile, native_handlers=app.native_handlers)
    if args.trace_instrs:
        from repro.isa import format_instruction

        remaining = [args.trace_instrs]

        def tracer(pc, instr):
            if remaining[0] > 0:
                print(f"  {format_instruction(instr, pc)}")
                remaining[0] -= 1

        emulator.tracer = tracer
    with _maybe_trace(args):
        result = emulator.call(args.entry, call_args)
    if result.trap:
        print(f"trapped: {result.trap} (after {result.steps} steps)")
        return 2
    print(f"{args.entry}({args.args or ''}) = {result.value}")
    print(f"steps={result.steps} cycles={result.cycles}")
    return 0


def _cmd_verify(args) -> int:
    from repro.workloads import app_spec, generate_app, verify_app

    app = generate_app(app_spec(args.workload, args.scale))
    results = verify_app(app, method_sample=args.samples)
    failed = False
    for result in results:
        status = "PASS" if result.ok else "FAIL"
        print(f"{status} {result.config_name}: {result.calls_checked} calls checked")
        for mismatch in result.mismatches[:5]:
            print(f"   {mismatch}")
            failed = True
    return 1 if failed else 0


def _cmd_oatdump(args) -> int:
    from repro.reporting import format_bytes, format_table

    oat = _load_oat(args.input)
    print(f"OAT image: text {format_bytes(oat.text_size)} @ {oat.text_base:#x}, "
          f"data {format_bytes(oat.data_size)} @ {oat.data_base:#x}, "
          f"{len(oat.methods)} methods")
    rows = []
    for record in sorted(oat.methods.values(), key=lambda r: r.offset):
        maps = len(record.stackmaps.entries) if record.stackmaps else 0
        rows.append([
            f"{oat.text_base + record.offset:#x}",
            record.size,
            record.frame_size,
            maps,
            record.name,
        ])
        if args.stackmaps and record.stackmaps:
            for e in record.stackmaps.entries:
                rows.append([
                    "", "", "",
                    f"pc+{e.native_pc:#x}",
                    f"  [{e.kind}] dex_pc={e.dex_pc} live={e.live_vregs:#x}",
                ])
    print(format_table(["address", "size", "frame", "maps", "method"], rows))
    return 0


def _cmd_dexdump(args) -> int:
    from repro.dex.pprint import format_dexfile

    print(format_dexfile(load_dexfile(args.input, verify=False)))
    return 0


def _cmd_trace(args) -> int:
    from repro.observability import load_trace, render_text

    try:
        trace = load_trace(args.input)
    except FileNotFoundError:
        print(f"error: no such trace file: {args.input}", file=sys.stderr)
        return 1
    except (json.JSONDecodeError, AttributeError, KeyError, TypeError, ValueError) as exc:
        print(f"error: {args.input} is not a trace JSON: {exc}", file=sys.stderr)
        return 1
    if args.chrome:
        from repro.observability import write_chrome

        write_chrome(trace, args.chrome)
        print(
            f"chrome trace -> {args.chrome} "
            f"(load in Perfetto or chrome://tracing)"
        )
        return 0
    try:
        print(render_text(trace, counters=not args.no_counters))
    except BrokenPipeError:
        # Downstream pager/head closed the pipe mid-print; swallow the
        # shutdown-time flush error too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


def _load_compare_side(path: str):
    """Classify one ``compare`` operand: ``("trace", Trace)`` for a
    ``--trace`` JSON, ``("ledger", LedgerEntry)`` for a ledger file (the
    *last* entry of a JSONL ledger, or a single JSON record)."""
    from repro.core.errors import ConfigError
    from repro.observability import BuildLedger, LedgerEntry, Trace

    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except FileNotFoundError:
        raise ConfigError(f"no such file: {path}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError:
        # Not one JSON document: a multi-entry JSONL ledger.
        entries = BuildLedger(path).entries()
        if not entries:
            raise ConfigError(f"{path}: not a trace JSON or a build ledger") from None
        return "ledger", entries[-1]
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: not a trace JSON or a build ledger")
    if "spans" in data:
        return "trace", Trace.from_dict(data)
    return "ledger", LedgerEntry.from_dict(data)


def _cmd_compare(args) -> int:
    from repro.core.errors import ConfigError
    from repro.observability import diff_entries, diff_traces

    kind_a, before = _load_compare_side(args.before)
    kind_b, after = _load_compare_side(args.after)
    if kind_a != kind_b:
        raise ConfigError(
            f"cannot compare a {kind_a} ({args.before}) with a {kind_b} "
            f"({args.after}); pass two traces or two ledgers"
        )
    differ = diff_traces if kind_a == "trace" else diff_entries
    report = differ(
        before, after, threshold=args.threshold, min_seconds=args.min_seconds
    )
    print(report.render())
    return 1 if report.has_regressions else 0


def _cmd_history(args) -> int:
    from repro.observability import BuildLedger
    from repro.reporting import format_table, pct

    entries = BuildLedger(args.input).entries()
    if args.config:
        entries = [e for e in entries if e.config == args.config]
    if not entries:
        print(f"no matching entries in {args.input}")
        return 0
    # One trajectory per (config, label): how this app under this
    # configuration moved between its first and latest recorded build.
    groups: dict[tuple[str, str], list] = {}
    for entry in entries:
        groups.setdefault((entry.config, entry.label), []).append(entry)
    rows = []
    for (config, label), series in groups.items():
        first, last = series[0], series[-1]
        rows.append([
            config,
            label or "-",
            len(series),
            f"{last.text_size_after:,}",
            pct(last.reduction),
            f"{last.reduction - first.reduction:+.2%}",
            f"{last.wall_seconds:.3f}s",
        ])
    print(format_table(
        ["config", "label", "builds", "text", "reduction", "drift", "wall"],
        rows,
    ))
    if args.plot:
        from repro.reporting import sparkline

        print()
        for (config, label), series in groups.items():
            values = [entry.reduction for entry in series]
            print(
                f"{config} / {label or '-'}: "
                f"{sparkline(values, width=60)}  "
                f"reduction {pct(values[0])} -> {pct(values[-1])} "
                f"over {len(values)} builds"
            )
    return 0


def _cmd_profile(args) -> int:
    from repro.profiling import profile_app
    from repro.workloads import app_spec, generate_app

    oat = _load_oat(args.input)
    app = generate_app(app_spec(args.workload, args.scale))
    report = profile_app(
        oat, app.dexfile, app.ui_script,
        native_handlers=app.native_handlers, repetitions=args.repetitions,
    )
    with open(args.output, "w", encoding="utf-8") as fh:
        json.dump(report.cycles, fh, indent=1)
    print(f"profiled {len(report.cycles)} functions over "
          f"{report.total_run_cycles} cycles -> {args.output}")
    for name, cycles in report.top(args.top):
        print(f"  {cycles:>12,}  {name}")
    return 0


# -- parser ----------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="calibro",
        description="Calibro (CGO 2025) reproduction: compilation-assisted "
        "linking-time binary code outlining.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic workload app")
    p.add_argument("app", help="one of the six paper apps (e.g. Wechat)")
    p.add_argument("--scale", type=float, default=0.25)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("compile", help="dex2oat: dex json -> package (CTO + LTBO.1)")
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--no-cto", action="store_true", help="disable compilation-time outlining")
    p.add_argument("--inline", action="store_true", help="inline small static callees")
    p.set_defaults(fn=_cmd_compile)

    p = sub.add_parser("outline", help="LTBO.2: outline a package")
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--groups", type=int, default=1, help="PlOpti partitions (1 = global tree)")
    p.add_argument("--min-length", type=int, default=2)
    p.add_argument("--min-saved", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--hot-profile", help="JSON cycle profile for HfOpti")
    p.add_argument("--coverage", type=float, default=0.80)
    p.add_argument("--rounds", type=int, default=1,
                   help="re-run the outliner over its own output N times")
    _add_trace_flag(p)
    p.set_defaults(fn=_cmd_outline)

    p = sub.add_parser("link", help="linking phase: package -> OAT")
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=_cmd_link)

    p = sub.add_parser("build", help="one-shot compile + outline + link")
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--no-cto", action="store_true")
    p.add_argument("--no-ltbo", action="store_true")
    p.add_argument("--groups", type=int, default=1)
    p.add_argument("--merging", action="store_true",
                   help="run the global function merging pass after "
                        "outlining (fold identical functions, parameterize "
                        "near-identical ones)")
    p.add_argument("--hot-profile")
    p.add_argument("--coverage", type=float, default=0.80)
    p.add_argument("--cache-dir",
                   help="persistent artifact cache directory (enables warm "
                        "rebuilds; shared with calibro serve)")
    p.add_argument("--incremental", action="store_true",
                   help="delta build via the keyed dependency graph — only "
                        "changed nodes re-execute (requires --cache-dir)")
    p.add_argument("--label",
                   help="app label for the incremental record and ledger "
                        "(default: the input basename) — keep it fixed across "
                        "versions of one app so delta builds find the "
                        "previous build")
    p.add_argument("--json", action="store_true",
                   help="print the versioned build summary as JSON")
    p.add_argument("--ledger", metavar="LEDGER.jsonl",
                   help="append this build's record to a JSONL build ledger")
    _add_trace_flag(p)
    p.set_defaults(fn=_cmd_build)

    p = sub.add_parser(
        "serve", help="batch build service: shared pool + persistent cache"
    )
    p.add_argument("inputs", nargs="*",
                   help="dex json files to build (batch mode; empty with "
                        "--listen)")
    p.add_argument("-o", "--outdir",
                   help="directory for the <label>.oat outputs (batch mode)")
    p.add_argument("--listen", metavar="SOCK",
                   help="run the async multi-tenant front door on a local "
                        "socket instead of a one-shot batch; clients connect "
                        "with calibro submit")
    p.add_argument("--queue-depth", type=int, default=8,
                   help="--listen: max builds in flight before overloaded")
    p.add_argument("--tenant-quota", type=int, default=4,
                   help="--listen: max in-flight builds per tenant")
    p.add_argument("--max-concurrent", type=int,
                   default=min(4, available_parallelism()),
                   help="--listen: builds executing at once (requests still "
                        "interleave at the socket; default: min(4, usable CPUs))")
    p.add_argument("--flush-interval", type=float, default=None,
                   metavar="SECONDS",
                   help="--listen: refresh --metrics-file on a timer even "
                        "when the serve loop is idle")
    p.add_argument("--config", metavar="CONFIG.json",
                   help="CalibroConfig dict (the to_dict/from_dict format)")
    p.add_argument("--groups", type=int, default=8,
                   help="PlOpti partitions when no --config is given")
    p.add_argument("--merging", action="store_true",
                   help="run the global function merging pass after "
                        "outlining (overrides the --config file)")
    p.add_argument("--jobs", type=int, default=None,
                   help="worker pool width (default: usable CPUs)")
    p.add_argument("--shards", type=int, default=None,
                   help="run group work in N worker shard processes "
                        "(N >= 2; default: the in-process worker pool)")
    p.add_argument("--cache-dir",
                   help="persistent cache directory (default: in-memory only)")
    p.add_argument("--cache-mb", type=int, default=64,
                   help="disk cache size bound in MiB")
    p.add_argument("--incremental", action="store_true",
                   help="delta builds via the keyed dependency graph — "
                        "re-executes only nodes whose content hash moved")
    p.add_argument("--json", action="store_true",
                   help="print per-build summaries + service stats as JSON")
    p.add_argument("--ledger", metavar="LEDGER.jsonl",
                   help="append one record per build to a JSONL build ledger")
    p.add_argument("--metrics-file", metavar="OUT.prom",
                   help="keep a Prometheus text exposition file refreshed "
                        "after every build")
    _add_trace_flag(p)
    p.set_defaults(fn=_cmd_serve)

    p = sub.add_parser(
        "submit", help="submit one build to a running serve --listen front door"
    )
    p.add_argument("socket", help="the --listen socket of a running calibro serve")
    p.add_argument("input", nargs="?", help="dex json file to build")
    p.add_argument("-o", "--output", help="output OAT path (required with INPUT)")
    p.add_argument("--tenant", default="default",
                   help="tenant id for the server's per-tenant quota")
    p.add_argument("--label",
                   help="app label for cache/ledger keys (default: the input "
                        "basename)")
    p.add_argument("--config", metavar="CONFIG.json",
                   help="CalibroConfig dict (default: the server's config)")
    p.add_argument("--timeout", type=float, default=120.0,
                   help="socket timeout in seconds")
    p.add_argument("--json", action="store_true",
                   help="print the build id + versioned summary as JSON")
    p.add_argument("--status", action="store_true",
                   help="print the server's status document and exit")
    p.add_argument("--cancel", metavar="BUILD_ID",
                   help="cooperatively cancel a queued build and exit")
    p.add_argument("--shutdown", action="store_true",
                   help="ask the server to drain and stop")
    _add_trace_flag(p)
    p.set_defaults(fn=_cmd_submit)

    p = sub.add_parser(
        "top", help="live view of a serve --listen front door: queue, "
                    "tenants, per-build phase and span tree"
    )
    p.add_argument("socket", help="the --listen socket of a running calibro serve")
    p.add_argument("--watch", action="store_true",
                   help="refresh continuously until Ctrl-C")
    p.add_argument("--interval", type=float, default=2.0,
                   help="--watch refresh period in seconds")
    p.add_argument("--timeout", type=float, default=10.0,
                   help="socket timeout in seconds")
    p.add_argument("--json", action="store_true",
                   help="print the raw status document as JSON")
    p.set_defaults(fn=_cmd_top)

    p = sub.add_parser("analyze", help="§2.2 redundancy analysis of a package")
    p.add_argument("input")
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("disasm", help="disassemble a linked OAT")
    p.add_argument("input")
    p.add_argument("--method", help="single method (default: all)")
    p.set_defaults(fn=_cmd_disasm)

    p = sub.add_parser("run", help="emulate a method from a linked OAT")
    p.add_argument("input")
    p.add_argument("--entry", required=True)
    p.add_argument("--args", default="", help="comma-separated integers")
    p.add_argument("--workload", help="workload name, to wire JNI handlers")
    p.add_argument("--scale", type=float, default=0.25)
    p.add_argument("--trace-instrs", type=int, default=0, metavar="N",
                   help="print the first N executed instructions")
    _add_trace_flag(p)
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("verify", help="differential oracle: interpreter vs emulated OAT")
    p.add_argument("--workload", required=True)
    p.add_argument("--scale", type=float, default=0.2)
    p.add_argument("--samples", type=int, default=40, help="extra random method probes")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("oatdump", help="dump OAT sections, method table, stackmaps")
    p.add_argument("input")
    p.add_argument("--stackmaps", action="store_true", help="include stackmap entries")
    p.set_defaults(fn=_cmd_oatdump)

    p = sub.add_parser("dexdump", help="pretty-print a dex json file")
    p.add_argument("input")
    p.set_defaults(fn=_cmd_dexdump)

    p = sub.add_parser("trace", help="pretty-print a saved --trace JSON as a phase tree")
    p.add_argument("input")
    p.add_argument("--no-counters", action="store_true",
                   help="omit the counter/gauge registries")
    p.add_argument("--chrome", metavar="OUT.json",
                   help="convert to Chrome trace-event format instead of "
                        "printing (load in Perfetto or chrome://tracing)")
    p.set_defaults(fn=_cmd_trace)

    p = sub.add_parser(
        "compare",
        help="diff two traces or two ledgers; exit 1 on a regression",
    )
    p.add_argument("before", help="baseline: a --trace JSON or a build ledger")
    p.add_argument("after", help="candidate: same kind as BEFORE")
    p.add_argument("--threshold", type=float, default=0.05,
                   help="relative regression threshold (0.05 = 5%%)")
    p.add_argument("--min-seconds", type=float, default=0.05,
                   help="ignore duration growth below this many seconds")
    p.set_defaults(fn=_cmd_compare)

    p = sub.add_parser("history", help="per-config trajectory table of a build ledger")
    p.add_argument("input", help="JSONL build ledger (see build/serve --ledger)")
    p.add_argument("--config", help="restrict to one configuration name")
    p.add_argument("--plot", action="store_true",
                   help="append a reduction sparkline per (config, label) "
                        "series")
    p.set_defaults(fn=_cmd_history)

    p = sub.add_parser("profile", help="simpleperf substitute: profile a workload run")
    p.add_argument("input")
    p.add_argument("--workload", required=True)
    p.add_argument("--scale", type=float, default=0.25)
    p.add_argument("--repetitions", type=int, default=1)
    p.add_argument("--top", type=int, default=10)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=_cmd_profile)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except CalibroError as exc:
        # Every pipeline error subclasses CalibroError and carries a
        # stable exit code (documented in docs/cli.md) — users get one
        # clean line, scripts get a machine-checkable status.
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except BrokenPipeError:
        # Downstream pager/head closed the pipe (e.g. `--json | head`);
        # swallow the shutdown-time flush error too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
