"""Property-based system tests: randomly generated programs must behave
identically before and after Calibro, under every configuration.

Hypothesis generates small straight-line-plus-branches programs directly
(not via the workload generator) so shrinking produces minimal
counterexamples when an invariant breaks.
"""

from __future__ import annotations

import os
import shutil
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CalibroConfig, build_app
from repro.dex import DexClass, DexFile, Interpreter, MethodBuilder
from repro.oat.oatfile import OatFile
from repro.runtime import Emulator
from repro.service import (
    AsyncBuildServer,
    BuildService,
    CalibroClient,
    ServiceConfig,
    serve_in_background,
)

_OPS = ("add", "sub", "mul", "xor", "and", "or")


@st.composite
def _program(draw):
    """A dex file of 3-6 small methods with shared instruction material."""
    n_methods = draw(st.integers(3, 6))
    # A shared pool of (op, literal) steps: methods drawing the same
    # steps produce repeated binary sequences for the outliner to find.
    pool = draw(
        st.lists(
            st.tuples(st.sampled_from(_OPS), st.integers(1, 63)),
            min_size=4,
            max_size=8,
        )
    )
    methods = []
    for mi in range(n_methods):
        b = MethodBuilder(f"LP;->m{mi}", num_inputs=2, num_registers=6)
        steps = draw(st.lists(st.integers(0, len(pool) - 1), min_size=2, max_size=10))
        b.move(2, 0)
        branchy = draw(st.booleans())
        if branchy:
            t = b.new_label()
            b.if_cmp(draw(st.sampled_from(["lt", "ge", "eq", "ne"])), 0, 1, t)
            b.binop("add", 2, 2, 1)
            b.bind(t)
        for si in steps:
            op, lit = pool[si]
            b.binop_lit(op, 2, 2, lit)
        if mi > 0 and draw(st.booleans()):
            b.invoke_static(f"LP;->m{mi - 1}", args=(2, 1), dst=3)
            b.binop("xor", 2, 2, 3)
        b.ret(2)
        methods.append(b.build())
    return DexFile(classes=[DexClass("LP;", methods)])


@given(
    dex=_program(),
    args=st.tuples(st.integers(-1000, 1000), st.integers(-1000, 1000)),
    use_plopti=st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_outlined_program_equals_interpreter(dex, args, use_plopti):
    config = (
        CalibroConfig.cto_ltbo_plopti(2) if use_plopti else CalibroConfig.cto_ltbo()
    )
    build = build_app(dex, config)
    interp = Interpreter(dex)
    emu = Emulator(build.oat, dex)
    for name in dex.method_names():
        want = interp.call(name, list(args))
        got = emu.call(name, list(args))
        assert got.trap is None
        assert got.value == want, name


@given(dex=_program())
@settings(max_examples=25, deadline=None)
def test_outlining_never_grows_code(dex):
    """The benefit model (min_saved >= 1) guarantees monotone non-growth
    of the *code bytes*.  The padded segment can grow by up to 12 bytes
    per added method (ART's 16-byte method alignment) on adversarially
    tiny inputs, so the invariant is asserted on unpadded sizes and the
    segment is bounded by the alignment slack."""
    base = build_app(dex, CalibroConfig.cto())
    out = build_app(dex, CalibroConfig.cto_ltbo())
    unpadded = lambda b: sum(r.size for r in b.oat.methods.values())
    assert unpadded(out) <= unpadded(base)
    slack = 16 * len(out.oat.methods)
    assert out.text_size <= base.text_size + slack


@given(dex=_program())
@settings(max_examples=15, deadline=None)
def test_stackmaps_survive_outlining(dex):
    """Every linked build passes the §3.5 StackMap consistency check —
    the linker runs it, so building without error is the assertion, but
    we also recheck explicitly."""
    from repro.oat.linker import _check_stackmaps

    build = build_app(dex, CalibroConfig.cto_ltbo())
    _check_stackmaps(build.oat)


# -- the served incremental path ----------------------------------------------

_SERVED_CONFIG = CalibroConfig.cto_ltbo_plopti(2).with_merging()


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """One incremental, 2-shard server for every example: each build is
    a delta against the previous, unrelated program under one label."""
    service = BuildService(ServiceConfig(
        cache_dir=tmp_path_factory.mktemp("served-cache"),
        incremental=True,
        shards=2,
    ))
    # AF_UNIX paths are capped near 108 bytes: keep the socket short.
    sockdir = tempfile.mkdtemp(prefix="calibro-sock-")
    sock = os.path.join(sockdir, "s")
    try:
        with serve_in_background(AsyncBuildServer(service, sock)):
            yield CalibroClient(sock, timeout=60.0)
    finally:
        service.close()
        shutil.rmtree(sockdir, ignore_errors=True)


@given(
    dex=_program(),
    args=st.tuples(st.integers(-1000, 1000), st.integers(-1000, 1000)),
)
@settings(max_examples=15, deadline=None)
def test_served_incremental_program_equals_interpreter(served, dex, args):
    result = served.build(dex, _SERVED_CONFIG, label="random")
    assert result.oat_bytes == build_app(dex, _SERVED_CONFIG).oat.to_bytes()
    interp = Interpreter(dex)
    emu = Emulator(OatFile.from_bytes(result.oat_bytes), dex)
    for name in dex.method_names():
        want = interp.call(name, list(args))
        got = emu.call(name, list(args))
        assert got.trap is None
        assert got.value == want, name
