"""Launcher for the program under test, one process per workload run.

    python3 perfbench/program.py [--trace-out SPANS.json] serve ARGS...
    python3 perfbench/program.py [--trace-out SPANS.json] cold

``serve`` hands ``ARGS`` to ``repro.cli.main`` (``calibro serve``).
``cold`` is a single-caller build loop: it reads one JSON request per
stdin line (``{"id": ..., "dex": <serialized dex>}``), runs an uncached
``build_app`` under the cold-build config and answers on stdout with
the OAT image.  With ``--trace-out`` the span wrappers of
``perfbench/tracing.py`` are installed first and the spans are written
to ``SPANS.json`` when the program returns.
"""

from __future__ import annotations

import base64
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]


def cold_config():
    """CTO+LTBO+PlOpti(K=8)+Merge with default jobs (the paper's
    Table 4/6/7 path plus merging)."""
    from repro.core import CalibroConfig

    return CalibroConfig.cto_ltbo_plopti(groups=8).with_merging()


def cold_loop(recorder) -> int:
    from repro.core import build_app
    from repro.dex.serialize import dexfile_from_json

    config = cold_config()
    out = sys.stdout
    out.write(json.dumps({"ready": True}) + "\n")
    out.flush()
    for line in sys.stdin:
        request = json.loads(line)
        if recorder is not None:
            recorder.request = request["id"]
        try:
            dexfile = dexfile_from_json(request["dex"])
            build = build_app(dexfile, config)
            reply = {
                "id": request["id"],
                "ok": True,
                "oat_b64": base64.b64encode(build.oat.to_bytes()).decode("ascii"),
            }
        except Exception as exc:  # a failed build is a result, not a crash
            reply = {"id": request["id"], "ok": False, "error": f"{type(exc).__name__}: {exc}"}
        out.write(json.dumps(reply) + "\n")
        out.flush()
    return 0


def main(argv: list[str]) -> int:
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    recorder = None
    if trace_out is not None:
        from perfbench import tracing

        recorder = tracing.Recorder()
        tracing.install(recorder)
    try:
        if argv[:1] == ["cold"]:
            return cold_loop(recorder)
        if argv[:1] == ["serve"]:
            from repro.cli import main as cli_main

            return cli_main(argv)
        print(f"usage: {__doc__.splitlines()[2].strip()}", file=sys.stderr)
        return 2
    finally:
        if recorder is not None:
            recorder.dump(trace_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
