"""One cache directory shared across services on a Zipf-reuse workload.

Every request here is its own tenant: a fresh
``BuildService(ServiceConfig(shards=4))`` per request, as a build farm
that starts a service per job would run it.  Without a ``cache_dir``
each fresh service starts cold and mines every group again; with every
service on one ``cache_dir`` the supervisor's lookup before dispatch
finds the groups (and the dex2oat result) that an earlier service
stored.  This benchmark drains the same Zipf-ranked request stream
through both arms, reports the warm hit rate ``Σ cached_groups /
Σ total_groups`` and the seconds of each, and asserts a hit rate
**strictly above zero** on the shared directory, with every output
byte-identical to ``build_app``.

Every run also appends one cold and one warm ``BuildService`` build to
``benchmarks/_artifacts/shared_cache_ledger.jsonl`` (labels
``shared_cache_cold`` / ``shared_cache_warm``, so the CI gate compares
warm against warm across runs) and runs ``scripts/ci_gate.py`` over
the ledger in-process — the ``service.cache.hit_rate`` rule gates the
warm trajectory: a future change that quietly turns the warm build
cold goes red here.
"""

from __future__ import annotations

import importlib.util
import io
import random
import tempfile
import time
from pathlib import Path

from repro.core import CalibroConfig, build_app
from repro.reporting import format_table
from repro.service import BuildService, ServiceConfig
from repro.workloads import app_spec, generate_app

from _bench_util import BENCH_SCALE, PLOPTI_GROUPS, emit, _ARTIFACTS

_SCALE = max(1.0, BENCH_SCALE)
#: Zipf-ranked request population: rank r drawn with weight 1/r, so a
#: few apps dominate the stream — the reuse profile a build farm sees.
_APPS = ["Meituan", "Taobao", "Wechat"]
_REQUESTS = 8
_SHARDS = 4
_LEDGER = _ARTIFACTS / "shared_cache_ledger.jsonl"
_GATE = Path(__file__).resolve().parents[1] / "scripts" / "ci_gate.py"


def _load_gate():
    spec = importlib.util.spec_from_file_location("ci_gate", _GATE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _zipf_workload(rng: random.Random, n: int) -> list[str]:
    weights = [1.0 / rank for rank in range(1, len(_APPS) + 1)]
    return rng.choices(_APPS, weights=weights, k=n)


def _drain(workload, dexfiles, config, cache_dir):
    """Build every request in its own fresh service; returns the OAT
    bytes per request, the warm hit rate and the wall seconds."""
    outputs: list[bytes] = []
    cached = total = 0
    t0 = time.perf_counter()
    for name in workload:
        with BuildService(
            ServiceConfig(cache_dir=cache_dir, shards=_SHARDS)
        ) as service:
            report = service.submit(dexfiles[name], config, label=name)
        outputs.append(report.build.oat.to_bytes())
        cached += report.cached_groups
        total += report.total_groups
    seconds = time.perf_counter() - t0
    return outputs, (cached / total if total else 0.0), seconds


def test_shared_cache_dir_reuses_groups_across_services(benchmark):
    def measure():
        dexfiles = {
            name: generate_app(app_spec(name, _SCALE)).dexfile for name in _APPS
        }
        config = CalibroConfig.cto_ltbo_plopti(groups=PLOPTI_GROUPS)
        references = {
            name: build_app(dexfiles[name], config).oat.to_bytes() for name in _APPS
        }
        workload = _zipf_workload(random.Random(2024), _REQUESTS)
        expected = [references[name] for name in workload]
        _ARTIFACTS.mkdir(exist_ok=True)

        # No cache_dir: every fresh service starts cold.
        memory_out, memory_rate, memory_s = _drain(workload, dexfiles, config, None)
        # One cache_dir behind every service of the same stream.
        with tempfile.TemporaryDirectory(prefix="calibro-shared-cache-") as tmp:
            shared_out, shared_rate, shared_s = _drain(
                workload, dexfiles, config, tmp
            )
        identical = memory_out == expected and shared_out == expected

        # Ledger trail: one cold and one warm full service build per
        # run, under stable labels so the CI gate compares warm against
        # warm (and cold against cold) across benchmark runs.
        reference = references["Meituan"]
        with tempfile.TemporaryDirectory(prefix="calibro-shared-ledger-") as tmp:
            with BuildService(
                ServiceConfig(cache_dir=tmp, shards=2, ledger=_LEDGER)
            ) as cold_service:
                cold = cold_service.submit(
                    dexfiles["Meituan"], config, label="shared_cache_cold"
                )
            with BuildService(
                ServiceConfig(cache_dir=tmp, shards=2, ledger=_LEDGER)
            ) as warm_service:
                warm = warm_service.submit(
                    dexfiles["Meituan"], config, label="shared_cache_warm"
                )
        identical &= cold.build.oat.to_bytes() == reference
        identical &= warm.build.oat.to_bytes() == reference

        return memory_rate, memory_s, shared_rate, shared_s, identical

    memory_rate, memory_s, shared_rate, shared_s, identical = benchmark.pedantic(
        measure, rounds=1, iterations=1
    )

    table = format_table(
        ["service cache", "requests", "warm hit rate", "seconds"],
        [
            ["memory only (no cache_dir)", str(_REQUESTS), f"{memory_rate:.2f}",
             f"{memory_s:.3f}"],
            ["one shared cache_dir", str(_REQUESTS), f"{shared_rate:.2f}",
             f"{shared_s:.3f}"],
        ],
    )
    emit(
        "shared_cache",
        f"Zipf-reuse stream, a fresh BuildService(shards={_SHARDS}) per "
        f"request (scale {_SCALE}, K={PLOPTI_GROUPS}; warm hit rate = "
        f"cached groups / total groups):\n"
        f"{table}\n"
        f"OAT bytes identical to build_app in both arms: {identical}",
    )

    assert identical, "service builds diverged from build_app"
    # The claim: services on one directory reuse each other's groups,
    # which fresh memory-only services cannot.  Zero means no reuse.
    assert shared_rate > 0.0, f"shared warm hit rate {shared_rate:.2f} is zero"

    # The ledger trajectory flows through the CI gate: wall gating off
    # (real timings jitter across hosts), size and hit-rate rules live.
    gate = _load_gate()
    report = io.StringIO()
    assert gate.run_gate(str(_LEDGER), min_seconds=1e9, out=report) == 0, (
        report.getvalue()
    )
