"""Multi-round outlining (the related-work Uber approach) and the
process-pool execution path."""

from __future__ import annotations

import pytest

from repro.core import compile_stage, link_stage, outline_stage
from repro.dex import Interpreter
from repro.runtime import Emulator


@pytest.fixture(scope="module")
def package(small_app):
    return compile_stage(small_app.dexfile)


def test_rounds_converge_quickly(package):
    """Round 2+ finds only greedy-shadowed scraps — one Calibro pass
    effectively converges (a deliberate negative result)."""
    multi = outline_stage(package, rounds=4)
    rounds = multi.annotations["outline"]["rounds"]
    assert rounds[0]["instructions_saved"] > 0
    later = sum(r["instructions_saved"] for r in rounds[1:])
    assert later <= 0.1 * rounds[0]["instructions_saved"]


def test_multiround_never_worse(package):
    one = outline_stage(package, rounds=1)
    multi = outline_stage(package, rounds=3)
    assert multi.text_size <= one.text_size


def test_multiround_symbols_unique(package):
    multi = outline_stage(package, rounds=3)
    names = [m.name for m in multi.methods]
    assert len(names) == len(set(names))


def test_multiround_semantics(small_app, small_app_expected, package):
    multi = outline_stage(package, rounds=3)
    oat = link_stage(multi)
    emu = Emulator(oat, small_app.dexfile, native_handlers=small_app.native_handlers)
    got = [
        emu.call(m, list(a)).value for m, a in small_app.ui_script.iterate()
    ]
    assert got == small_app_expected


def test_invalid_rounds(package):
    with pytest.raises(ValueError):
        outline_stage(package, rounds=0)


def test_process_pool_path(monkeypatch, package):
    """Force the process branch of map_over_groups whatever the host's
    CPU count: the worker payloads must be picklable and the results
    identical to serial.  Both outline_partitioned and map_over_groups
    clamp jobs through ``repro.suffixtree.parallel.clamp_jobs``, which
    reads the CPU count patched here."""
    import repro.suffixtree.parallel as par
    from repro.core import select_candidates
    from repro.core.parallel import outline_partitioned

    candidates = select_candidates(list(package.methods)).candidates
    serial = outline_partitioned(candidates, groups=2, jobs=1)
    monkeypatch.setattr(par, "available_parallelism", lambda: 4)
    executor = par.GroupExecutor(2)
    monkeypatch.setattr(par, "_SHARED", executor)
    with executor:
        pooled = outline_partitioned(candidates, groups=2, jobs=2)
    assert executor.stats.dispatches == 2
    assert [f.name for f in pooled.outlined] == [f.name for f in serial.outlined]
    assert {i: m.code for i, m in pooled.rewritten.items()} == {
        i: m.code for i, m in serial.rewritten.items()
    }
