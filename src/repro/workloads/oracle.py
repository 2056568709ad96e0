"""Differential oracle: interpreter vs emulated OAT, per configuration.

The repository's core correctness claim is that no Calibro configuration
changes observable behaviour.  This module packages that claim as a
reusable check (and the CLI's ``calibro verify``): run an app's UI
script — and optionally a random sample of individual methods — through
the reference interpreter and through the emulator on each built
configuration, comparing results and trap kinds.  The per-image half
of that check — :func:`reference_results` once per app version, then
:func:`check_oat` per built image — is public, so OAT images from any
build path (the serve front door, incremental deltas) face the same
comparison.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.core.pipeline import CalibroConfig, build_app
from repro.dex.interp import DexError, Interpreter
from repro.dex.method import DexFile
from repro.oat.oatfile import OatFile
from repro.runtime.emulator import Emulator
from repro.workloads.appgen import GeneratedApp

__all__ = [
    "Mismatch",
    "OracleResult",
    "check_oat",
    "default_configs",
    "reference_results",
    "verify_app",
]

#: ``(method, args)`` calls the oracle makes.
Probe = tuple[str, list[int]]


@dataclass(frozen=True)
class Mismatch:
    """One behavioural divergence."""

    method: str
    args: tuple[int, ...]
    expected: object
    actual: object

    def __str__(self) -> str:
        return (
            f"{self.method}{self.args}: interpreter={self.expected!r} "
            f"emulator={self.actual!r}"
        )


@dataclass
class OracleResult:
    """Outcome for one configuration."""

    config_name: str
    calls_checked: int = 0
    mismatches: list[Mismatch] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches


def default_configs() -> list[CalibroConfig]:
    return [
        CalibroConfig.baseline(),
        CalibroConfig.cto(),
        CalibroConfig.cto_ltbo(),
        CalibroConfig.cto_ltbo_plopti(4),
        CalibroConfig.cto_ltbo_plopti(4).with_merging(),
    ]


def _reference(interp: Interpreter, method: str, args: list[int]) -> object:
    try:
        return interp.call(method, args)
    except DexError as exc:
        return ("trap", exc.kind)


def _emulated(emulator: Emulator, method: str, args: list[int]) -> object:
    result = emulator.call(method, args)
    if result.trap is not None:
        return ("trap", result.trap)
    return result.value


def reference_results(
    dexfile: DexFile,
    probes: list[Probe],
    *,
    native_handlers=None,
    max_steps: int = 200_000_000,
) -> list[object]:
    """What the reference interpreter answers to each probe on
    ``dexfile``: the return value, or ``("trap", kind)``."""
    interp = Interpreter(dexfile, native_handlers=native_handlers, max_steps=max_steps)
    return [_reference(interp, method, args) for method, args in probes]


def check_oat(
    oat: OatFile,
    dexfile: DexFile,
    probes: list[Probe],
    expected: list[object],
    *,
    native_handlers=None,
    config_name: str = "",
) -> OracleResult:
    """Run each probe on the emulator over ``oat`` (built from
    ``dexfile``) and compare it with ``expected``
    (:func:`reference_results` on the same dexfile)."""
    emulator = Emulator(oat, dexfile, native_handlers=native_handlers)
    outcome = OracleResult(config_name=config_name)
    for (method, args), want in zip(probes, expected):
        got = _emulated(emulator, method, args)
        outcome.calls_checked += 1
        if got != want:
            outcome.mismatches.append(
                Mismatch(method=method, args=tuple(args), expected=want, actual=got)
            )
    return outcome


def verify_app(
    app: GeneratedApp,
    configs: list[CalibroConfig] | None = None,
    *,
    method_sample: int = 0,
    seed: int = 0,
    max_steps: int = 200_000_000,
) -> list[OracleResult]:
    """Differentially test ``app`` under each configuration.

    Checks every UI-script call, plus ``method_sample`` randomly chosen
    (method, args) probes per configuration.  Returns one
    :class:`OracleResult` per configuration; callers decide whether a
    mismatch is fatal.
    """
    configs = configs if configs is not None else default_configs()
    probes: list[Probe] = [
        (method, list(args)) for method, args in app.ui_script.iterate()
    ]
    rng = random.Random(seed)
    names = app.dexfile.method_names()
    for _ in range(method_sample):
        probes.append(
            (rng.choice(names), [rng.randint(-1000, 1000), rng.randint(-1000, 1000)])
        )

    expected = reference_results(
        app.dexfile, probes, native_handlers=app.native_handlers, max_steps=max_steps
    )
    return [
        check_oat(
            build_app(app.dexfile, config).oat,
            app.dexfile,
            probes,
            expected,
            native_handlers=app.native_handlers,
            config_name=config.name,
        )
        for config in configs
    ]
