"""Shared benchmark fixtures: the six-app suite, cached builds, and the
emulated measurement runs.

Scale knobs (environment variables):

``CALIBRO_BENCH_SCALE``
    App size multiplier (default ``0.25``).  ``1.0`` builds apps with
    220-610 methods (proportional to the paper's six apps); pure-Python
    mining makes paper-absolute sizes (millions of instructions)
    impractical — see DESIGN.md.  The measured *ratios* are
    scale-stable; ``bench_scale_stability`` demonstrates it.
``CALIBRO_BENCH_REPS``
    UI-script repetitions for the memory/runtime tables (default ``3``;
    the paper uses 20 on-device).
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from _bench_util import BENCH_REPS, BENCH_SCALE, PLOPTI_GROUPS  # noqa: E402

from repro.core import CalibroConfig, build_app
from repro.profiling import profile_app
from repro.runtime import Emulator
from repro.workloads import APP_NAMES, app_spec, generate_app


class SuiteCache:
    """Lazily generates apps, builds and measurement runs, memoised for
    the whole benchmark session."""

    def __init__(self, scale: float):
        self.scale = scale
        self._apps: dict[str, object] = {}
        self._builds: dict[tuple[str, str], object] = {}
        self._profiles: dict[str, dict[str, int]] = {}

    def app(self, name: str):
        if name not in self._apps:
            self._apps[name] = generate_app(app_spec(name, self.scale))
        return self._apps[name]

    def _config(self, key: str, app):
        if key == "baseline":
            return CalibroConfig.baseline()
        if key == "CTO":
            return CalibroConfig.cto()
        if key == "CTO+LTBO":
            return CalibroConfig.cto_ltbo()
        if key == "CTO+LTBO+PlOpti":
            return CalibroConfig.cto_ltbo_plopti(PLOPTI_GROUPS)
        if key == "CTO+LTBO+Merge":
            return CalibroConfig.cto_ltbo().with_merging()
        if key == "CTO+LTBO+PlOpti+Merge":
            return CalibroConfig.cto_ltbo_plopti(PLOPTI_GROUPS).with_merging()
        if key == "CTO+LTBO+PlOpti+HfOpti":
            return CalibroConfig.full(
                self.profile(app.name), groups=PLOPTI_GROUPS, coverage=0.80
            )
        raise KeyError(key)

    def build(self, app_name: str, config_key: str):
        key = (app_name, config_key)
        if key not in self._builds:
            app = self.app(app_name)
            self._builds[key] = build_app(app.dexfile, self._config(config_key, app))
        return self._builds[key]

    def profile(self, app_name: str) -> dict[str, int]:
        """Fig. 6: profile the *baseline* build to guide the next build."""
        if app_name not in self._profiles:
            app = self.app(app_name)
            report = profile_app(
                self.build(app_name, "baseline").oat,
                app.dexfile,
                app.ui_script,
                native_handlers=app.native_handlers,
            )
            self._profiles[app_name] = report.cycles
        return self._profiles[app_name]

    def run_script(self, app_name: str, config_key: str, repetitions: int = BENCH_REPS):
        """Emulate the app's UI script; returns the emulator (for memory
        and cycle queries) and the per-call results."""
        app = self.app(app_name)
        build = self.build(app_name, config_key)
        emulator = Emulator(build.oat, app.dexfile, native_handlers=app.native_handlers)
        results = []
        for _ in range(repetitions):
            for method, args in app.ui_script.iterate():
                result = emulator.call(method, list(args))
                assert result.trap is None, (app_name, config_key, method, result.trap)
                results.append(result)
        return emulator, results


@pytest.fixture(scope="session")
def suite() -> SuiteCache:
    return SuiteCache(BENCH_SCALE)


@pytest.fixture(scope="session")
def app_names() -> tuple[str, ...]:
    return APP_NAMES
