"""The repository benchmark: three workloads, end to end and per layer.

    python3 perfbench/run.py --workload {cold_builds,serve_warm,serve_edits} \\
        --seed N --seconds S --trace {0,1} [--size {full,tiny}]

Generates the workload's inputs from the seed, starts the program in
its own process, measures for ``--seconds`` (longer when fewer than
100 requests have completed, so p90 has ten requests beyond it), checks
every output, prints each metric by name with its unit, and ends with
one JSON line: ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the
workload twice, untraced then traced, and reports the per-layer
metrics.  README.md explains the workloads and every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PROGRAM = os.path.join(ROOT, "perfbench", "program.py")
WORKDIR = os.path.join(ROOT, ".perfbench_run")

#: Set-ups per untraced run; setup_s is their median.
SETUPS = 3
#: Closed-loop clients of the serve workloads (one per CPU of the
#: reference host).
CLIENTS = 2
#: serve_edits: non-check versions also compared with an in-process build.
EDIT_REFERENCE_SAMPLE = 4
#: Seconds a program process gets to start, answer or stop.
PROGRAM_TIMEOUT = 120
#: Server arguments per workload (besides socket, cache and --merging).
SERVE_ARGS = {"serve_warm": [], "serve_edits": ["--incremental", "--shards", "2"]}


@dataclass
class Record:
    """One request as the caller saw it."""

    key: str
    rid: str
    start: float
    end: float
    outcome: str
    digest: str = ""
    summary: dict | None = None
    error: str = ""


def parse_args(argv):
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True,
                        choices=("cold_builds", "serve_warm", "serve_edits"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    return parser.parse_args(argv)


def program_env() -> dict[str, str]:
    """The program's processes get a random hash seed and the source tree."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONHASHSEED"}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc status")


def request_id(client: int, index: int) -> str:
    """32 hex digits: a valid ``TraceContext`` trace id."""
    return f"{client + 1:04x}{index:028x}"


# -- program processes ----------------------------------------------------------


class ColdProgram:
    """The single-caller build loop of ``program.py cold``."""

    def __init__(self, env, log, trace_out=None):
        argv = [sys.executable, PROGRAM]
        if trace_out:
            argv += ["--trace-out", trace_out]
        self.proc = subprocess.Popen(
            argv + ["cold"], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=log, env=env, text=True,
        )
        if not json.loads(self._readline()).get("ready"):
            raise RuntimeError("cold build program did not start")

    def _readline(self) -> str:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"cold build program exited ({self.proc.poll()})")
        return line

    def build(self, rid: str, dex_text: str) -> dict:
        self.proc.stdin.write(f'{{"id": "{rid}", "dex": {dex_text}}}\n')
        self.proc.stdin.flush()
        return json.loads(self._readline())

    def status(self) -> dict | None:
        return None

    def close(self) -> None:
        try:
            self.proc.stdin.close()
            self.proc.wait(PROGRAM_TIMEOUT)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            self.proc.stdout.close()


class ServeProgram:
    """A ``calibro serve --listen`` process and its socket."""

    def __init__(self, workload, env, log, index, trace_out=None):
        from repro.core.errors import ServiceError
        from repro.service import CalibroClient

        self.socket = f"s{index}.sock"
        argv = [sys.executable, PROGRAM]
        if trace_out:
            argv += ["--trace-out", trace_out]
        argv += ["serve", "--listen", self.socket, "--cache-dir", f"cache{index}",
                 "--merging", *SERVE_ARGS[workload]]
        self.cache_dir = f"cache{index}"
        self.proc = subprocess.Popen(argv, stdout=log, stderr=log, env=env)
        self._client = CalibroClient(self.socket, timeout=PROGRAM_TIMEOUT)
        deadline = time.monotonic() + PROGRAM_TIMEOUT
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"serve program exited ({self.proc.returncode})")
            if os.path.exists(self.socket):
                try:
                    self._client.status()
                    break
                except (OSError, ServiceError):  # bound but not listening yet
                    pass
            if time.monotonic() > deadline:
                raise RuntimeError("serve program did not start listening")
            time.sleep(0.005)

    def client(self):
        from repro.service import CalibroClient

        return CalibroClient(self.socket, timeout=PROGRAM_TIMEOUT)

    def status(self) -> dict:
        return self._client.status()

    def close(self) -> None:
        try:
            if self.proc.poll() is None:
                self._client.shutdown()
                self.proc.wait(PROGRAM_TIMEOUT)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()


def start_program(workload, inputs, texts, env, log, index, trace_out=None):
    """Start the program and build the warm-up inputs; returns the
    program and the seconds from process start to ready."""
    started = time.perf_counter()
    if workload == "cold_builds":
        program = ColdProgram(env, log, trace_out)
        try:
            for key in inputs.warmup:
                reply = program.build(request_id(255, 0), texts[key])
                if not reply["ok"]:
                    raise RuntimeError(f"warm-up build failed: {reply['error']}")
        except BaseException:
            program.close()
            raise
        return program, time.perf_counter() - started
    program = ServeProgram(workload, env, log, index, trace_out)
    try:
        client = program.client()
        for key in inputs.warmup:
            item = inputs.items[key]
            client.build(item.dexfile, label=item.label, want_oat=False)
    except BaseException:
        program.close()
        raise
    return program, time.perf_counter() - started


# -- the timed window -----------------------------------------------------------


def drive(workload, program, inputs, texts, seconds, recorder=None):
    """Closed-loop load for ``seconds`` (and until 100 requests are
    done).  Returns the records, the distinct outputs and the window
    start."""
    from perfbench import checks, stats

    min_requests = stats.min_samples(0.9)
    records: list[Record] = []
    outputs: dict[tuple[str, str], bytes] = {}
    lock = threading.Lock()
    start = time.perf_counter()
    deadline = start + seconds

    def keep_going() -> bool:
        return time.perf_counter() < deadline or len(records) < min_requests

    def finish(record: Record, oat: bytes | None) -> None:
        with lock:
            if oat is not None:
                record.digest = checks.digest(oat)
                outputs.setdefault((record.key, record.digest), oat)
            records.append(record)

    if workload == "cold_builds":
        import base64

        for index, key in enumerate(inputs.streams[0]):
            if not keep_going():
                break
            rid = request_id(0, index)
            if recorder is not None:
                recorder.request = rid
            t0 = time.perf_counter()
            try:
                reply = program.build(rid, texts[key])
                outcome = stats.OK if reply["ok"] else stats.ERRORED
            except (OSError, RuntimeError, ValueError) as exc:
                reply, outcome = {"error": str(exc)}, stats.ERRORED
            t1 = time.perf_counter()
            oat = base64.b64decode(reply["oat_b64"]) if outcome == stats.OK else None
            finish(Record(key, rid, t0, t1, outcome, error=reply.get("error", "")), oat)
            if outcome != stats.OK and program.proc.poll() is not None:
                break
        return records, outputs, start

    from repro.observability import TraceContext
    from repro.service import OverloadedError

    shared = iter(inputs.streams[0]) if inputs.shared_stream else None

    def client_loop(client_index: int) -> None:
        client = program.client()
        own = None if shared is not None else iter(inputs.streams[client_index])
        for index in range(1 << 30):
            if not keep_going():
                return
            with lock:
                key = next(shared if shared is not None else own, None)
            if key is None:
                return
            item = inputs.items[key]
            rid = request_id(client_index, index)
            if recorder is not None:
                recorder.request = rid
            t0 = time.perf_counter()
            result, error = None, ""
            try:
                result = client.build(
                    item.dexfile, label=item.label, trace_context=TraceContext(trace_id=rid)
                )
                outcome = stats.OK
            except OverloadedError as exc:
                outcome, error = stats.REFUSED, str(exc)
            except Exception as exc:  # any other failure is a failed request
                outcome, error = stats.ERRORED, f"{type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
            record = Record(key, rid, t0, t1, outcome,
                            summary=result.summary if result else None, error=error)
            finish(record, result.oat_bytes if result else None)

    threads = [threading.Thread(target=client_loop, args=(c,)) for c in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return records, outputs, start


# -- one phase: set up, drive, stop ---------------------------------------------


@dataclass
class Phase:
    records: list
    outputs: dict
    start: float
    setup_times: list
    peak_rss_mb: float
    status_before: dict | None = None
    status_after: dict | None = None
    cache_bytes: int = 0
    spans: list | None = None


def dir_bytes(path: str) -> int:
    total = 0
    for base, _dirs, files in os.walk(path):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(base, name))
            except OSError:
                pass
    return total


def run_phase(args, inputs, texts, env, log, *, setups, seconds, traced=False,
              recorder=None, tag="p"):
    from perfbench import tracing

    setup_times = []
    program = None
    trace_out = f"spans-{tag}.json" if traced else None
    try:
        for index in range(setups):
            if program is not None:
                program.close()
            program, seconds_to_ready = start_program(
                args.workload, inputs, texts, env, log, f"{tag}{index}", trace_out
            )
            setup_times.append(seconds_to_ready)
        status_before = program.status()
        records, outputs, start = drive(args.workload, program, inputs, texts, seconds, recorder)
        phase = Phase(records, outputs, start, setup_times, peak_rss_mb(program.proc.pid),
                      status_before, program.status())
        if isinstance(program, ServeProgram):
            phase.cache_bytes = dir_bytes(program.cache_dir)
    finally:
        if program is not None:
            program.close()
    if traced:
        phase.spans = tracing.load(trace_out)
    return phase


# -- outputs and metrics --------------------------------------------------------


def check_phase_outputs(args, inputs, phases):
    """Run the output checks over every phase's distinct outputs and
    mark wrong requests; returns the check report."""
    from perfbench import checks, stats

    outputs: dict = {}
    for phase in phases:
        for pair, data in phase.outputs.items():
            outputs.setdefault(pair, data)
    check_keys = sorted(k for k, item in inputs.items.items() if item.check)
    served = sorted({key for key, _d in outputs})
    missing = [k for k in check_keys if k not in served]
    if missing:
        raise RuntimeError(f"check-set inputs never served: {missing}")
    if args.workload == "serve_warm":
        reference_keys = served
    elif args.workload == "serve_edits":
        rest = [k for k in served if k not in check_keys]
        sample = random.Random(f"reference/{args.seed}").sample(
            rest, min(EDIT_REFERENCE_SAMPLE, len(rest))
        )
        reference_keys = check_keys + sorted(sample)
    else:
        reference_keys = check_keys
    report = checks.check_outputs(inputs, outputs, reference_keys, check_keys)
    for phase in phases:
        for record in phase.records:
            if record.outcome == stats.OK and (record.key, record.digest) in report.wrong:
                record.outcome = stats.WRONG
    return report, check_keys


def exact_metrics(phase, report, check_keys) -> dict[str, float]:
    """Text bytes, size reduction and cycles of the check-set outputs."""
    from repro.oat.oatfile import OatFile

    text = cycles = 0
    for key in check_keys:
        (pair, data), = [(p, d) for p, d in phase.outputs.items() if p[0] == key]
        text += OatFile.from_bytes(data).text_size
        cycles += report.cycles[pair]
    baseline = sum(report.baseline_text[k] for k in check_keys)
    return {
        "text_bytes": float(text),
        "size_reduction_pct": 100.0 * (1.0 - text / baseline),
        "runtime_cycles": float(cycles),
    }


def latency_metrics(phase) -> dict[str, float]:
    from perfbench import stats

    latencies = stats.request_latencies((r.outcome, r.end - r.start) for r in phase.records)
    done = sum(1 for r in phase.records if r.outcome == stats.OK)
    elapsed = max(r.end for r in phase.records) - phase.start
    return {
        "latency_p50_s": stats.percentile(latencies, 0.5),
        "latency_p90_s": stats.percentile(latencies, 0.9),
        "throughput_rps": done / elapsed,
    }


END_TO_END_UNITS = {
    "setup_s": "s", "latency_p50_s": "s", "latency_p90_s": "s", "throughput_rps": "1/s",
    "ok_pct": "%", "text_bytes": "bytes", "size_reduction_pct": "%",
    "runtime_cycles": "cycles", "peak_rss_mb": "MB",
}


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    # SIGTERM unwinds like an error, so every program process is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program source at {SRC}/repro", file=sys.stderr)
        return 2
    from perfbench.inputs import GEN_HASH_SEED

    if os.environ.get("PYTHONHASHSEED") != GEN_HASH_SEED:
        # Inputs must be generated under one fixed hash seed (see
        # inputs.py); the program's own processes get random ones.
        env = dict(os.environ, PYTHONHASHSEED=GEN_HASH_SEED)
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__), *sys.argv[1:]], env)
    sys.path.insert(0, SRC)
    from perfbench import inputs as inputs_mod, stats
    from perfbench.layers import per_layer_metrics

    workdir = os.path.join(WORKDIR, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    os.chdir(workdir)
    log = open("program.log", "ab")
    clock = {"start": time.perf_counter()}
    # A second generation in another process must give the same inputs.
    digest_proc = subprocess.Popen(
        [sys.executable, os.path.join(ROOT, "perfbench", "inputs.py"),
         "--workload", args.workload, "--seed", str(args.seed), "--size", args.size],
        stdout=subprocess.PIPE, text=True,
    )
    try:
        inputs = inputs_mod.generate(args.workload, args.seed, args.size)
        digest = inputs.digest()
        other = digest_proc.communicate(timeout=PROGRAM_TIMEOUT)[0].strip()
        if other != digest:
            raise RuntimeError(f"input generation is not reproducible: {digest} != {other}")
        texts = {}
        if args.workload == "cold_builds":
            from repro.dex.serialize import dexfile_to_json

            texts = {k: json.dumps(dexfile_to_json(i.dexfile)) for k, i in inputs.items.items()}
        env = program_env()
        clock["generated"] = time.perf_counter()

        if args.trace:
            half = args.seconds / 2
            plain = run_phase(args, inputs, texts, env, log, setups=1, seconds=half, tag="u")
            recorder = None
            if args.workload != "cold_builds":
                from perfbench import tracing

                recorder = tracing.Recorder()
                tracing.install(recorder, {"client"})
            traced = run_phase(args, inputs, texts, env, log, setups=1, seconds=half,
                               traced=True, recorder=recorder, tag="t")
            if recorder is not None:
                traced.spans += recorder.spans
            phases = [plain, traced]
        else:
            phases = [run_phase(args, inputs, texts, env, log, setups=SETUPS,
                                seconds=args.seconds)]
        clock["measured"] = time.perf_counter()
        report, check_keys = check_phase_outputs(args, inputs, phases)
        clock["checked"] = time.perf_counter()
        measured = phases[-1]
        summary = stats.summarize_outcomes(r.outcome for p in phases for r in p.records)
        if args.trace:
            from perfbench import tracing

            gaps = tracing.coverage_gaps(args.workload, traced.spans)
            if gaps:
                raise RuntimeError(f"traced run recorded no span for: {', '.join(gaps)}")
            metrics = per_layer_metrics(args.workload, plain, traced)
        else:
            metrics = {"setup_s": (stats.median(measured.setup_times), "s")}
            values = latency_metrics(measured)
            values["ok_pct"] = summary.ok_pct
            values.update(exact_metrics(measured, report, check_keys))
            values["peak_rss_mb"] = measured.peak_rss_mb
            metrics.update({k: (v, END_TO_END_UNITS[k]) for k, v in values.items()})
    except BaseException:
        log.flush()
        with open("program.log", encoding="utf-8", errors="replace") as fh:
            sys.stderr.write("program log (tail):\n" + fh.read()[-4000:])
        raise
    finally:
        if digest_proc.poll() is None:
            digest_proc.kill()
        digest_proc.wait()
        log.close()
        os.chdir(ROOT)
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORKDIR)
        except OSError:
            pass  # another run still uses it

    correct = summary.failed == 0 and not report.problems
    print(f"{args.workload} seed={args.seed} size={args.size} trace={args.trace} "
          f"inputs={digest[:16]}")
    print(f"  requests {summary.attempted} attempted, {summary.failed} failed "
          f"(failed_pct {summary.failed_pct:.4f} %: {summary.refused} refused, "
          f"{summary.errored} errored, {summary.wrong} wrong output)")
    print(f"  checks: {report.outputs_emulated} distinct outputs emulated "
          f"({report.calls_checked} UI calls vs the interpreter), "
          f"{report.references_built} compared with in-process builds")
    print(f"  wall: inputs {clock['generated'] - clock['start']:.1f} s, set-up and "
          f"window {clock['measured'] - clock['generated']:.1f} s, "
          f"checks {clock['checked'] - clock['measured']:.1f} s")
    ok_latencies = sorted(r.end - r.start for r in measured.records if r.outcome == stats.OK)
    if ok_latencies:
        ranks = [ok_latencies[min(len(ok_latencies) - 1, int(q * len(ok_latencies)))]
                 for q in (0.1, 0.25, 0.4, 0.5, 0.6, 0.75, 0.85, 0.9, 0.95)]
        print("  latency p10 p25 p40 p50 p60 p75 p85 p90 p95: "
              + " ".join(f"{v:.4f}" for v in ranks) + " s")
    for problem in report.problems[:20]:
        print(f"  CHECK FAILED: {problem}")
    for record in [r for p in phases for r in p.records if r.error][:5]:
        print(f"  request {record.key} failed: {record.error}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<28} {value:>16.6f} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": summary.attempted,
        "failed": summary.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, ROOT)
    sys.exit(main())
