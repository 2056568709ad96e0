"""Content keys: each artifact's key moves with every input that can
change its bytes, and is equal in every process.

A compiled method enters the outline cache's group keys and the merge
node key as its ``fingerprint``; a dex method enters the method and
dex node keys as its dataclass ``repr``.  A key that misses an input
splices a stale artifact, and a key that depends on the process's hash
seed never hits across processes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import fields, replace as dc_replace
from pathlib import Path

import pytest

from repro.compiler.compiled import CompiledMethod, Relocation, RelocKind
from repro.compiler.driver import dex2oat
from repro.compiler.stackmap import StackMapEntry
from repro.core import CalibroConfig
from repro.core.metadata import (
    DataExtent,
    MethodMetadata,
    PcRelativeRef,
    SlowpathExtent,
)
from repro.dex.method import DexMethod
from repro.dex.serialize import dexfile_from_json, dexfile_to_json, save_dexfile
from repro.service.graph import dex_node_key

REPO = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def method(small_app) -> CompiledMethod:
    """A compiled method with relocations, metadata and StackMap entries."""
    result = dex2oat(small_app.dexfile, cto=True)
    return next(
        m for m in result.methods
        if m.relocations and m.metadata is not None
        and m.stackmaps is not None and m.stackmaps.entries
    )


def _edit_relocation(method, **change):
    method.relocations = [dc_replace(method.relocations[0], **change),
                          *method.relocations[1:]]


def _edit_metadata(method, **change):
    method.metadata = dc_replace(method.metadata, **change)


def _edit_stackmap(method, **change):
    table = method.stackmaps
    method.stackmaps = dc_replace(
        table, entries=[dc_replace(table.entries[0], **change), *table.entries[1:]]
    )


def _other_kind(kind: str) -> str:
    return next(k for k in RelocKind.ALL if k != kind)


#: One edit per field, applied in place to a fresh copy whose digest is
#: not computed yet (so validation in ``__post_init__`` is bypassed).
METHOD_EDITS = {
    "name": lambda m: setattr(m, "name", m.name + "x"),
    "code": lambda m: setattr(m, "code", bytes([m.code[0] ^ 1]) + m.code[1:]),
    "frame_size": lambda m: setattr(m, "frame_size", m.frame_size + 16),
    "callees": lambda m: setattr(m, "callees", (*m.callees, "LOther;->m")),
}
RELOCATION_EDITS = {
    "offset": lambda m: _edit_relocation(m, offset=m.relocations[0].offset + 4),
    "kind": lambda m: _edit_relocation(m, kind=_other_kind(m.relocations[0].kind)),
    "symbol": lambda m: _edit_relocation(m, symbol=m.relocations[0].symbol + "x"),
    "addend": lambda m: _edit_relocation(m, addend=m.relocations[0].addend + 8),
}
METADATA_EDITS = {
    "method_name": lambda m: _edit_metadata(m, method_name="LOther;->m"),
    "code_size": lambda m: _edit_metadata(m, code_size=m.metadata.code_size + 4),
    "embedded_data": lambda m: _edit_metadata(
        m, embedded_data=[*m.metadata.embedded_data, DataExtent(start=0, size=4)]
    ),
    "pc_relative": lambda m: _edit_metadata(
        m, pc_relative=[*m.metadata.pc_relative, PcRelativeRef(offset=0, target=4)]
    ),
    "terminators": lambda m: _edit_metadata(m, terminators=[*m.metadata.terminators, 0]),
    "has_indirect_jump": lambda m: _edit_metadata(
        m, has_indirect_jump=not m.metadata.has_indirect_jump
    ),
    "is_native": lambda m: _edit_metadata(m, is_native=not m.metadata.is_native),
    "slowpaths": lambda m: _edit_metadata(
        m, slowpaths=[*m.metadata.slowpaths, SlowpathExtent(start=0, end=4)]
    ),
}
STACKMAP_EDITS = {
    "native_pc": lambda m: _edit_stackmap(
        m, native_pc=m.stackmaps.entries[0].native_pc + 4
    ),
    "dex_pc": lambda m: _edit_stackmap(m, dex_pc=m.stackmaps.entries[0].dex_pc + 1),
    "live_vregs": lambda m: _edit_stackmap(
        m, live_vregs=m.stackmaps.entries[0].live_vregs ^ 1
    ),
    "kind": lambda m: _edit_stackmap(
        m, kind="slowpath" if m.stackmaps.entries[0].kind == "call" else "call"
    ),
}
FINGERPRINT_EDITS = {
    **METHOD_EDITS,
    **{f"relocation.{k}": v for k, v in RELOCATION_EDITS.items()},
    **{f"metadata.{k}": v for k, v in METADATA_EDITS.items()},
    **{f"stackmap.{k}": v for k, v in STACKMAP_EDITS.items()},
}


def test_every_field_has_an_edit():
    """A field added to one of these types needs its case here."""
    assert set(METHOD_EDITS) | {"relocations", "metadata", "stackmaps"} == {
        f.name for f in fields(CompiledMethod)
    }
    assert set(RELOCATION_EDITS) == {f.name for f in fields(Relocation)}
    assert set(METADATA_EDITS) == {f.name for f in fields(MethodMetadata)}
    assert set(STACKMAP_EDITS) == {f.name for f in fields(StackMapEntry)}


@pytest.mark.parametrize("edit", sorted(FINGERPRINT_EDITS))
def test_each_field_moves_the_fingerprint(method, edit):
    edited = dc_replace(method)
    FINGERPRINT_EDITS[edit](edited)
    assert edited.fingerprint != method.fingerprint


def test_a_replaced_copy_computes_its_own_digest(method):
    digest = method.fingerprint
    assert dc_replace(method).fingerprint == digest
    copy = dc_replace(method, frame_size=method.frame_size + 16)
    assert "fingerprint" not in vars(copy)
    assert copy.fingerprint != digest
    assert method.fingerprint == digest


# -- dex keys -----------------------------------------------------------------


def _copy(dexfile):
    return dexfile_from_json(dexfile_to_json(dexfile), verify=False)


def _edit_first_instruction(dexfile):
    method = next(m for m in dexfile.all_methods() if m.code)
    instr = method.code[0]
    name = next(f.name for f in fields(instr) if type(getattr(instr, f.name)) is int)
    method.code[0] = dc_replace(instr, **{name: getattr(instr, name) + 1})


def _swap_first_methods(dexfile):
    methods = next(c.methods for c in dexfile.classes if len(c.methods) > 1)
    methods[0], methods[1] = methods[1], methods[0]


def _first(dexfile):
    return dexfile.all_methods()[0]


HEADER_EDITS = {
    "name": lambda d: setattr(_first(d), "name", _first(d).name + "x"),
    "num_registers": lambda d: setattr(
        _first(d), "num_registers", _first(d).num_registers + 1
    ),
    "num_inputs": lambda d: setattr(_first(d), "num_inputs", _first(d).num_inputs + 1),
    "is_native": lambda d: setattr(_first(d), "is_native", not _first(d).is_native),
    "returns_value": lambda d: setattr(
        _first(d), "returns_value", not _first(d).returns_value
    ),
}
DEX_EDITS = {
    "string_table": lambda d: d.string_table.append("another string"),
    "class_name": lambda d: setattr(d.classes[0], "name", d.classes[0].name + "x"),
    "method_order": _swap_first_methods,
    "instruction": _edit_first_instruction,
    **{f"header.{k}": v for k, v in HEADER_EDITS.items()},
}


def test_every_method_header_field_has_an_edit():
    assert set(HEADER_EDITS) | {"code"} == {f.name for f in fields(DexMethod)}


@pytest.mark.parametrize("edit", sorted(DEX_EDITS))
def test_each_dex_input_moves_the_dex_key(small_app, edit):
    config = CalibroConfig.cto()
    base = dex_node_key(small_app.dexfile, config)
    edited = _copy(small_app.dexfile)
    assert dex_node_key(edited, config) == base
    DEX_EDITS[edit](edited)
    assert dex_node_key(edited, config) != base


def test_dex_key_survives_a_json_round_trip(small_app, featured_app):
    for app in (small_app, featured_app):
        copy = dexfile_from_json(dexfile_to_json(app.dexfile))
        for config in (CalibroConfig.cto(), CalibroConfig.baseline()):
            assert dex_node_key(copy, config) == dex_node_key(app.dexfile, config)
    assert dex_node_key(small_app.dexfile, CalibroConfig.cto()) != dex_node_key(
        small_app.dexfile, CalibroConfig.baseline()
    )


# -- keys across processes ----------------------------------------------------


_KEYS_SCRIPT = """
import json, sys
from repro.core import CalibroConfig, build_app
from repro.dex.serialize import load_dexfile
from repro.service import OutlineCache
from repro.service.graph import (
    BuildGraph, config_fingerprint, dex_node_key, method_node_key,
)

dexfile = load_dexfile(sys.argv[1])
methods = dexfile.all_methods()
profile = {m.name: 10 * (i + 1) for i, m in enumerate(methods[:12])}
config = CalibroConfig.full(profile, groups=4).with_merging()
build = build_app(dexfile, config, cache=OutlineCache())
print(json.dumps({
    "dex": dex_node_key(dexfile, config),
    "methods": [
        method_node_key(m, cto=True, method_id=i) for i, m in enumerate(methods)
    ],
    "config": config_fingerprint(config),
    "record": BuildGraph.record_key("app", config),
    "fingerprints": [m.fingerprint.hex() for m in build.dex2oat.methods],
    "groups": build.ltbo.group_keys,
    "merge": build.merge.node_key,
}))
"""


def test_every_key_is_equal_across_hash_seeds(tmp_path, small_app):
    """App generation depends on the hash seed, so the test writes the
    dex file once and both processes read it."""
    path = tmp_path / "app.dex"
    save_dexfile(small_app.dexfile, str(path))
    outputs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(REPO / "src"))
        proc = subprocess.run(
            [sys.executable, "-c", _KEYS_SCRIPT, str(path)],
            capture_output=True, text=True, env=env, cwd=tmp_path, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(json.loads(proc.stdout))
    first, second = outputs
    assert first["groups"] and first["fingerprints"] and first["merge"]
    assert first == second
