"""``calibro serve`` / ``calibro build --json`` / error exit codes."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.core import SUMMARY_KEYS, SUMMARY_SCHEMA_VERSION
from repro.dex.serialize import save_dexfile
from repro.oat.oatfile import OatFile
from repro.workloads import app_spec, generate_app


@pytest.fixture(scope="module")
def dex_json(tmp_path_factory):
    path = tmp_path_factory.mktemp("serve") / "meituan.dex.json"
    save_dexfile(generate_app(app_spec("Meituan", scale=0.12)).dexfile, str(path))
    return path


def test_build_json_emits_the_versioned_summary(tmp_path, dex_json, capsys):
    out = tmp_path / "app.oat"
    assert main(["build", str(dex_json), "-o", str(out), "--groups", "2", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert tuple(doc) == SUMMARY_KEYS
    assert doc["schema_version"] == SUMMARY_SCHEMA_VERSION
    assert doc["config"] == "CTO+LTBO+PlOpti"
    assert out.exists()


def test_serve_builds_and_reuses_the_cache(tmp_path, dex_json, capsys):
    outdir, cache = tmp_path / "out", tmp_path / "cache"
    argv = ["serve", str(dex_json), "-o", str(outdir), "--groups", "2",
            "--cache-dir", str(cache)]
    assert main(argv) == 0
    cold = capsys.readouterr().out
    assert "compile cache miss" in cold and "0/2 groups cached" in cold

    oat_bytes = (outdir / "meituan.oat").read_bytes()
    assert OatFile.from_bytes(oat_bytes).text_size > 0

    # A fresh process-equivalent run: everything comes from the disk tier.
    assert main(argv) == 0
    warm = capsys.readouterr().out
    assert "compile cache hit" in warm and "2/2 groups cached" in warm
    assert (outdir / "meituan.oat").read_bytes() == oat_bytes


def test_serve_json_document(tmp_path, dex_json, capsys):
    assert main(["serve", str(dex_json), "-o", str(tmp_path / "o"),
                 "--groups", "2", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema_version"] == SUMMARY_SCHEMA_VERSION
    [build] = doc["builds"]
    assert build["label"] == "meituan" and build["total_groups"] == 2
    assert doc["service"]["builds"] == 1
    assert "hit_rate" in doc["service"]["cache"]


def test_serve_honours_a_config_file(tmp_path, dex_json, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"name": "custom", "cto_enabled": True,
                                  "ltbo_enabled": True, "parallel_groups": 3}))
    assert main(["serve", str(dex_json), "-o", str(tmp_path / "o"),
                 "--config", str(config), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["builds"][0]["config"] == "custom"
    assert doc["builds"][0]["total_groups"] == 3


def test_config_error_maps_to_exit_code_2(tmp_path, dex_json, capsys):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"parallel_groups": 0}))
    rc = main(["serve", str(dex_json), "-o", str(tmp_path / "o"),
               "--config", str(config)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "parallel_groups" in err


def test_unknown_config_key_maps_to_exit_code_2(tmp_path, dex_json, capsys):
    config = tmp_path / "typo.json"
    config.write_text(json.dumps({"grops": 4}))
    assert main(["serve", str(dex_json), "-o", str(tmp_path / "o"),
                 "--config", str(config)]) == 2
    assert "unknown config keys" in capsys.readouterr().err


def test_serve_max_concurrent_defaults_to_bounded_executor_width():
    # The front door's executor is bounded at min(4, usable cpus) by
    # default — one core serializes, a many-core host still caps at 4 so
    # a single serve process cannot monopolize the machine.
    from repro.cli import _build_parser
    from repro.suffixtree.parallel import available_parallelism

    args = _build_parser().parse_args(["serve", "in.dex", "-o", "out"])
    assert args.max_concurrent == min(4, available_parallelism())
    assert args.max_concurrent >= 1


def test_verification_error_is_one_error_line_with_exit_code_1(
    tmp_path, dex_json, capsys
):
    """An input that fails verification is a deliberate pipeline error:
    one ``error:`` line naming the bad register, not a traceback."""
    from dataclasses import replace

    from repro.dex import bytecode as bc
    from repro.dex.serialize import load_dexfile

    dexfile = load_dexfile(str(dex_json))
    method = next(m for m in dexfile.all_methods()
                  if any(isinstance(i, bc.Const) for i in m.code))
    index = next(i for i, instr in enumerate(method.code) if isinstance(instr, bc.Const))
    method.code[index] = replace(method.code[index], dst=method.num_registers)
    bad = tmp_path / "bad.dex.json"
    save_dexfile(dexfile, str(bad))
    assert main(["build", str(bad), "-o", str(tmp_path / "bad.oat")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"v{method.num_registers} out of range" in err


def test_link_error_maps_to_exit_code_4(tmp_path, capsys):
    bogus = tmp_path / "bogus.oat"
    bogus.write_bytes(b"\x00" * 64)
    assert main(["disasm", str(bogus)]) == 4
    assert "bad magic" in capsys.readouterr().err
