"""JSON serialisation of mini-DEX files.

The on-disk interchange format for the CLI: a dex file (classes,
methods, bytecode, string table) round-trips through a stable JSON
shape.  Instructions serialise as ``[opcode, {field: value}]`` pairs —
explicit and diff-friendly.
"""

from __future__ import annotations

import json
from dataclasses import fields
from typing import Any

from repro.dex import bytecode as bc
from repro.dex.method import DexClass, DexFile, DexMethod
from repro.dex.verifier import verify_dexfile

__all__ = [
    "dexfile_from_json",
    "dexfile_to_json",
    "load_dexfile",
    "method_to_json",
    "save_dexfile",
]

#: Opcode name ↔ instruction class.
_OPCODES: dict[str, type] = {
    "nop": bc.Nop,
    "const": bc.Const,
    "const-string": bc.ConstString,
    "move": bc.Move,
    "binop": bc.BinOp,
    "binop-lit": bc.BinOpLit,
    "if": bc.If,
    "if-z": bc.IfZ,
    "goto": bc.Goto,
    "packed-switch": bc.PackedSwitch,
    "return": bc.Return,
    "return-void": bc.ReturnVoid,
    "invoke-static": bc.InvokeStatic,
    "invoke-virtual": bc.InvokeVirtual,
    "new-instance": bc.NewInstance,
    "new-array": bc.NewArray,
    "array-length": bc.ArrayLength,
    "iget": bc.IGet,
    "iput": bc.IPut,
    "aget": bc.AGet,
    "aput": bc.APut,
}
_NAMES = {cls: name for name, cls in _OPCODES.items()}


def _instr_to_json(instr: bc.Instruction) -> list[Any]:
    payload = {}
    for f in fields(instr):
        value = getattr(instr, f.name)
        payload[f.name] = list(value) if isinstance(value, tuple) else value
    return [_NAMES[type(instr)], payload]


def _instr_from_json(entry: list[Any]) -> bc.Instruction:
    name, payload = entry
    cls = _OPCODES.get(name)
    if cls is None:
        raise ValueError(f"unknown opcode {name!r}")
    kwargs = dict(payload)
    for key, value in kwargs.items():
        if isinstance(value, list):
            kwargs[key] = tuple(value)
    return cls(**kwargs)


def method_to_json(method: DexMethod) -> dict[str, Any]:
    """One method's JSON shape (every field that drives compilation):
    two methods with equal ``method_to_json`` documents compile to
    identical bytes."""
    return {
        "name": method.name,
        "num_registers": method.num_registers,
        "num_inputs": method.num_inputs,
        "is_native": method.is_native,
        "returns_value": method.returns_value,
        "code": [_instr_to_json(i) for i in method.code],
    }


def dexfile_to_json(dexfile: DexFile) -> dict[str, Any]:
    """Serialise to a JSON-compatible dict."""
    return {
        "format": "repro-dex/1",
        "string_table": list(dexfile.string_table),
        "classes": [
            {
                "name": cls.name,
                "methods": [method_to_json(m) for m in cls.methods],
            }
            for cls in dexfile.classes
        ],
    }


def dexfile_from_json(data: dict[str, Any], *, verify: bool = True) -> DexFile:
    """Deserialise; verifies structural invariants by default."""
    if data.get("format") != "repro-dex/1":
        raise ValueError(f"unsupported dex format {data.get('format')!r}")
    classes = []
    for cls in data["classes"]:
        methods = [
            DexMethod(
                name=m["name"],
                num_registers=m["num_registers"],
                num_inputs=m["num_inputs"],
                is_native=m["is_native"],
                returns_value=m["returns_value"],
                code=[_instr_from_json(e) for e in m["code"]],
            )
            for m in cls["methods"]
        ]
        classes.append(DexClass(name=cls["name"], methods=methods))
    dexfile = DexFile(classes=classes, string_table=list(data["string_table"]))
    if verify:
        verify_dexfile(dexfile)
    return dexfile


def save_dexfile(dexfile: DexFile, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(dexfile_to_json(dexfile), fh, indent=1)


def load_dexfile(path: str, *, verify: bool = True) -> DexFile:
    with open(path, encoding="utf-8") as fh:
        return dexfile_from_json(json.load(fh), verify=verify)
