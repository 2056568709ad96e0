"""Shared fixtures: a small generated app and its builds.

Session-scoped because compiling an app once and reusing it across test
modules keeps the suite fast; tests never mutate these objects.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core import CalibroConfig, build_app
from repro.dex import DexClass, DexFile, DexMethod, Interpreter, MethodBuilder
from repro.workloads import app_spec, generate_app


@pytest.fixture(scope="session")
def small_app():
    """A small generated app: 61 methods with a native, a packed-switch,
    entry loops and a string table, but no ``const-string`` and no void
    method (see ``featured_app``)."""
    return generate_app(app_spec("Taobao", scale=0.25))


@pytest.fixture(scope="session")
def featured_app(small_app):
    """``small_app`` plus one class holding what it lacks: ``log``, a
    void method whose body is a ``const-string`` (of a string appended
    to the table), and ``pick``, which calls ``log``, then a
    packed-switch whose fall-through returns the native ``mix``'s
    result."""
    app = small_app
    cls = "LTaobao/Featured;"
    log_name, mix_name, pick_name = (f"{cls}->{name}" for name in ("log", "mix", "pick"))
    log = MethodBuilder(log_name, num_inputs=1, num_registers=2, returns_value=False)
    log.const_string(1, len(app.dexfile.string_table)).ret_void()
    mix = DexMethod(name=mix_name, num_registers=1, num_inputs=1, is_native=True)
    pick = MethodBuilder(pick_name, num_inputs=1, num_registers=2)
    cases = [pick.new_label() for _ in range(3)]
    pick.invoke_static(log_name, args=(0,))
    pick.packed_switch(0, 0, cases)
    pick.invoke_static(mix_name, args=(0,), dst=1).ret(1)
    for key, label in enumerate(cases):
        pick.bind(label).const(1, 10 * key + 1).ret(1)
    dexfile = DexFile(
        classes=[*app.dexfile.classes, DexClass(cls, [log.build(), mix, pick.build()])],
        string_table=[*app.dexfile.string_table, "featured"],
    )
    handlers = {**app.native_handlers, mix_name: lambda args: 7 * args[0] + 3}
    return dataclasses.replace(app, dexfile=dexfile, native_handlers=handlers)


@pytest.fixture(scope="session")
def small_app_expected(small_app):
    """Reference results for the app's UI script, from the interpreter."""
    interp = Interpreter(
        small_app.dexfile,
        native_handlers=small_app.native_handlers,
        max_steps=100_000_000,
    )
    return [interp.call(m, list(a)) for m, a in small_app.ui_script.iterate()]


@pytest.fixture(scope="session")
def baseline_build(small_app):
    return build_app(small_app.dexfile, CalibroConfig.baseline())


@pytest.fixture(scope="session")
def cto_build(small_app):
    return build_app(small_app.dexfile, CalibroConfig.cto())


@pytest.fixture(scope="session")
def ltbo_build(small_app):
    return build_app(small_app.dexfile, CalibroConfig.cto_ltbo())


@pytest.fixture(scope="session")
def plopti_build(small_app):
    return build_app(small_app.dexfile, CalibroConfig.cto_ltbo_plopti(4))
