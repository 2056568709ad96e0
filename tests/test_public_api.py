"""Public API smoke: every module imports and every __all__ name
resolves — the packaging-break canary."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import repro

#: Every module under ``repro`` except ``repro.__main__``, whose import
#: runs the CLI.
MODULES = sorted(
    ["repro"]
    + [
        info.name
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
        if info.name != "repro.__main__"
    ]
)


@pytest.mark.parametrize("name", MODULES)
def test_module_imports_and_all_resolves(name):
    module = importlib.import_module(name)
    for symbol in getattr(module, "__all__", []):
        assert getattr(module, symbol, None) is not None, f"{name}.{symbol}"


def test_version():
    assert repro.__version__
