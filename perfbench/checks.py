"""Output checks, run after the timed window.

* Every distinct output runs its app's UI script on the emulator
  (predictive cycle model) and must agree with the reference
  interpreter on the input dex, call by call.  The same runs give the
  cycle counts.
* Outputs of the keys in ``reference_keys`` must equal an uncached
  in-process ``build_app`` of the same dex and config, byte for byte.
  The benchmark process generated its inputs under a fixed hash seed,
  the program under a random one, so this also checks cross-process
  determinism.
* Every key must always get the same bytes.

The work is spread over ``CHECK_WORKERS`` forked processes.  Forked,
not spawned: the generated apps carry their native handlers as
closures, which cannot be pickled, and a forked child inherits them.
The pool starts only when the benchmark process runs no other thread.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import threading
from dataclasses import dataclass, field, replace

CHECK_WORKERS = 2
#: Step budget per emulated or interpreted call.
MAX_STEPS = 200_000_000

_INPUTS = None  # the WorkloadInputs the forked workers read


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _outcome(result) -> object:
    return ("trap", result.trap) if result.trap is not None else result.value


def _emulate(task: tuple[str, bytes]) -> tuple[str, str, int, int, int]:
    """(key, output digest, calls, mismatching calls, cycles)."""
    from repro.dex.interp import DexError, Interpreter
    from repro.oat.oatfile import OatFile
    from repro.runtime import Emulator
    from repro.runtime.cycles import CycleModel

    key, oat_bytes = task
    item = _INPUTS.items[key]
    handlers = item.app.native_handlers
    interp = Interpreter(item.dexfile, native_handlers=handlers, max_steps=MAX_STEPS)
    emulator = Emulator(
        OatFile.from_bytes(oat_bytes), item.dexfile, native_handlers=handlers,
        cycle_model=CycleModel(pipeline="predictive"), max_steps=MAX_STEPS,
    )
    calls = mismatches = cycles = 0
    for method, args in item.app.ui_script.iterate():
        try:
            want = interp.call(method, list(args))
        except DexError as exc:
            want = ("trap", exc.kind)
        got = emulator.call(method, list(args))
        calls += 1
        cycles += got.cycles
        mismatches += _outcome(got) != want
    return key, digest(oat_bytes), calls, mismatches, cycles


def _reference(task: tuple[str, str]) -> tuple[str, str, str, int]:
    """(key, config kind, OAT digest, text bytes) of an in-process build."""
    from repro.core import CalibroConfig, build_app
    from perfbench.program import cold_config

    key, kind = task
    config = replace(cold_config(), jobs=1) if kind == "config" else CalibroConfig.baseline()
    build = build_app(_INPUTS.items[key].dexfile, config)
    return key, kind, digest(build.oat.to_bytes()), build.text_size


@dataclass
class CheckReport:
    #: (key, digest) of outputs that failed a check.
    wrong: set[tuple[str, str]] = field(default_factory=set)
    #: (key, digest) -> UI-script cycles of that output.
    cycles: dict[tuple[str, str], int] = field(default_factory=dict)
    #: key -> text bytes of the baseline-config build.
    baseline_text: dict[str, int] = field(default_factory=dict)
    outputs_emulated: int = 0
    calls_checked: int = 0
    references_built: int = 0
    problems: list[str] = field(default_factory=list)


def check_outputs(
    inputs,
    outputs: dict[tuple[str, str], bytes],
    reference_keys: list[str],
    baseline_keys: list[str],
) -> CheckReport:
    """Check every distinct ``(key, digest) -> OAT bytes`` output."""
    global _INPUTS
    if threading.active_count() != 1:
        raise RuntimeError("checks fork worker processes; stop every thread first")
    report = CheckReport()
    by_key: dict[str, set[str]] = {}
    for key, out_digest in outputs:
        by_key.setdefault(key, set()).add(out_digest)
    for key, digests in by_key.items():
        if len(digests) > 1:
            report.problems.append(f"{key}: {len(digests)} different outputs")
            report.wrong.update((key, d) for d in digests)
    tasks_ref = [(k, "config") for k in reference_keys] + [(k, "baseline") for k in baseline_keys]
    _INPUTS = inputs
    try:
        with multiprocessing.get_context("fork").Pool(CHECK_WORKERS) as pool:
            emulated = pool.map_async(
                _emulate, [(key, data) for (key, _d), data in outputs.items()], chunksize=1
            )
            references = pool.map_async(_reference, tasks_ref, chunksize=1)
            emulated, references = emulated.get(), references.get()
    finally:
        _INPUTS = None
    for key, out_digest, calls, mismatches, cycles in emulated:
        report.outputs_emulated += 1
        report.calls_checked += calls
        report.cycles[(key, out_digest)] = cycles
        if mismatches:
            report.problems.append(f"{key}: {mismatches}/{calls} UI calls differ from the interpreter")
            report.wrong.add((key, out_digest))
    for key, kind, ref_digest, text in references:
        if kind == "baseline":
            report.baseline_text[key] = text
            continue
        report.references_built += 1
        for out_digest in by_key.get(key, ()):
            if out_digest != ref_digest:
                report.problems.append(f"{key}: output differs from the in-process build")
                report.wrong.add((key, out_digest))
    return report
