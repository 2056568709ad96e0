"""CLI: the staged workflow end to end, via the in-process entry point."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.oat import OatFile


@pytest.fixture(scope="module")
def workdir(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def dex_json(workdir) -> Path:
    path = workdir / "app.dex.json"
    assert main(["gen", "Meituan", "--scale", "0.12", "-o", str(path)]) == 0
    return path


@pytest.fixture(scope="module")
def package(workdir, dex_json) -> Path:
    path = workdir / "app.pkg"
    assert main(["compile", str(dex_json), "-o", str(path)]) == 0
    return path


@pytest.fixture(scope="module")
def outlined(workdir, package) -> Path:
    path = workdir / "app.out.pkg"
    assert main(["outline", str(package), "-o", str(path), "--groups", "2"]) == 0
    return path


@pytest.fixture(scope="module")
def oat_path(workdir, outlined) -> Path:
    path = workdir / "app.oat"
    assert main(["link", str(outlined), "-o", str(path)]) == 0
    return path


def test_gen_writes_valid_dex(dex_json):
    from repro.dex import load_dexfile

    dex = load_dexfile(str(dex_json))
    assert dex.all_methods()


def test_compile_produces_package(package):
    from repro.compiler import CompilationPackage

    pkg = CompilationPackage.load(str(package))
    assert pkg.cto_enabled and pkg.methods


def test_outline_shrinks_text(package, outlined):
    from repro.compiler import CompilationPackage

    before = CompilationPackage.load(str(package))
    after = CompilationPackage.load(str(outlined))
    assert after.text_size < before.text_size
    assert after.annotations["outline"]["outlined_functions"] > 0


@pytest.mark.parametrize(
    "flags",
    [["--min-length", "65"], ["--min-length", "0"], ["--min-saved", "-1"]],
    ids=["min-length-above-max-length", "min-length-zero", "min-saved-negative"],
)
def test_outline_rejects_invalid_thresholds(workdir, package, flags):
    out = workdir / "invalid.pkg"
    assert main(["outline", str(package), "-o", str(out), *flags]) == 2
    assert not out.exists()


def test_link_produces_runnable_oat(oat_path, dex_json):
    oat = OatFile.from_bytes(oat_path.read_bytes())
    assert oat.text_size > 0
    # run an entry point through the CLI
    from repro.dex import load_dexfile

    dex = load_dexfile(str(dex_json))
    entry = next(n for n in dex.method_names() if "entry" in n)
    rc = main([
        "run", str(oat_path), "--entry", entry, "--args", "3,4",
        "--workload", "Meituan", "--scale", "0.12",
    ])
    assert rc == 0


def test_run_matches_interpreter(oat_path, dex_json, capsys):
    from repro.dex import Interpreter, load_dexfile
    from repro.workloads import app_spec, generate_app

    app = generate_app(app_spec("Meituan", 0.12))
    dex = load_dexfile(str(dex_json))
    entry = next(n for n in dex.method_names() if "entry" in n)
    want = Interpreter(
        dex, native_handlers=app.native_handlers, max_steps=100_000_000
    ).call(entry, [3, 4])
    main([
        "run", str(oat_path), "--entry", entry, "--args", "3,4",
        "--workload", "Meituan", "--scale", "0.12",
    ])
    out = capsys.readouterr().out
    assert f"= {want}" in out


def test_profile_and_hot_build(workdir, oat_path, dex_json):
    profile_path = workdir / "profile.json"
    rc = main([
        "profile", str(oat_path), "--workload", "Meituan", "--scale", "0.12",
        "-o", str(profile_path), "--top", "3",
    ])
    assert rc == 0
    profile = json.loads(profile_path.read_text())
    assert profile and all(isinstance(v, int) for v in profile.values())

    full = workdir / "full.oat"
    rc = main([
        "build", str(dex_json), "-o", str(full), "--groups", "2",
        "--hot-profile", str(profile_path),
    ])
    assert rc == 0
    hot_oat = OatFile.from_bytes(full.read_bytes())
    plain_oat = OatFile.from_bytes(oat_path.read_bytes())
    assert hot_oat.text_size >= plain_oat.text_size  # protection costs size


def test_build_has_no_engine_flag_or_summary_key(workdir, dex_json, capsys):
    oat = workdir / "eng.oat"
    with pytest.raises(SystemExit) as exc:
        main(["build", str(dex_json), "-o", str(oat), "--engine", "suffixarray"])
    assert exc.value.code == 2
    capsys.readouterr()

    rc = main(["build", str(dex_json), "-o", str(oat), "--groups", "2", "--json"])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    from repro.core import SUMMARY_SCHEMA_VERSION

    assert summary["schema_version"] == SUMMARY_SCHEMA_VERSION == 4
    assert "engine" not in summary


def test_analyze_prints_estimate(package, capsys):
    assert main(["analyze", str(package)]) == 0
    out = capsys.readouterr().out
    assert "estimated outlining potential" in out and "%" in out


def test_disasm_single_method(oat_path, capsys):
    oat = OatFile.from_bytes(oat_path.read_bytes())
    name = next(n for n in oat.methods if n.startswith("MethodOutliner"))
    assert main(["disasm", str(oat_path), "--method", name]) == 0
    out = capsys.readouterr().out
    assert "br x30" in out

    assert main(["disasm", str(oat_path), "--method", "nope"]) == 1


def test_trap_exit_code(workdir, dex_json):
    # dividing entry doesn't exist; craft a trap via a bogus entry call
    oat = workdir / "app.oat"
    rc = main(["run", str(oat), "--entry", "LMeituan/Main;->entry0", "--args", ""])
    assert rc in (0, 2)  # runs (natives default to 0) or traps cleanly
