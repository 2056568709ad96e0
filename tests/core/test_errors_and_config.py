"""The CalibroError hierarchy and config validation/round-tripping."""

from __future__ import annotations

import json

import pytest

from repro.core import (
    CalibroConfig,
    CalibroError,
    ConfigError,
    LinkError,
    OutlineError,
    ServiceError,
    SUMMARY_KEYS,
    SUMMARY_SCHEMA_VERSION,
    build_app,
)
from repro.core.hotfilter import HotFunctionFilter


class TestHierarchy:
    def test_every_error_is_a_calibro_error(self):
        for cls in (ConfigError, OutlineError, LinkError, ServiceError):
            assert issubclass(cls, CalibroError)

    def test_value_error_compatibility(self):
        # Pre-hierarchy callers caught ValueError / RuntimeError; the
        # new types keep those contracts.
        for cls in (ConfigError, OutlineError, LinkError):
            assert issubclass(cls, ValueError)
        assert issubclass(ServiceError, RuntimeError)

    def test_exit_codes_are_stable_and_distinct(self):
        codes = {
            CalibroError: 1, ConfigError: 2, OutlineError: 3,
            LinkError: 4, ServiceError: 5,
        }
        for cls, code in codes.items():
            assert cls.exit_code == code
        assert len(set(codes.values())) == len(codes)

    def test_oat_reexport_still_works(self):
        from repro.oat import LinkError as ReExported

        assert ReExported is LinkError


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"parallel_groups": 0},
        {"parallel_groups": -3},
        {"jobs": 0},
        {"min_length": 0},
        {"min_length": 9, "max_length": 4},
        {"min_saved": -1},
    ])
    def test_invalid_values_raise_at_construction(self, kwargs):
        with pytest.raises(ConfigError):
            CalibroConfig(**kwargs)

    def test_valid_edges_pass(self):
        CalibroConfig(parallel_groups=1, jobs=1, min_length=1, min_saved=0)
        CalibroConfig(jobs=None)

    def test_config_error_is_also_a_value_error(self):
        with pytest.raises(ValueError):
            CalibroConfig(parallel_groups=0)

    def test_unknown_engine_raises_at_construction(self):
        # One repeat miner remains: the config has no engine field.
        with pytest.raises(TypeError, match="engine"):
            CalibroConfig(engine="suffixarray")


class TestConfigRoundTrip:
    def test_plain_round_trip(self):
        config = CalibroConfig.cto_ltbo_plopti(groups=4, jobs=2)
        assert CalibroConfig.from_dict(config.to_dict()) == config

    def test_hot_filter_round_trip(self):
        hot = HotFunctionFilter.from_profile({"a": 900, "b": 90, "c": 10}, 0.80)
        config = CalibroConfig.cto_ltbo().with_hot_filter(hot)
        back = CalibroConfig.from_dict(config.to_dict())
        assert back == config
        assert back.hot_filter.hot_names == hot.hot_names

    def test_dict_is_json_compatible(self):
        config = CalibroConfig.full({"a": 900, "b": 100}, groups=2)
        assert CalibroConfig.from_dict(
            json.loads(json.dumps(config.to_dict()))
        ) == config

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys: grops"):
            CalibroConfig.from_dict({"grops": 4})

    def test_non_mapping_rejected(self):
        with pytest.raises(ConfigError):
            CalibroConfig.from_dict([1, 2])

    def test_missing_keys_take_defaults(self):
        config = CalibroConfig.from_dict({"cto_enabled": True})
        assert config.cto_enabled and config.parallel_groups == 1

    def test_dict_has_no_engine_or_size_passes_key(self):
        data = CalibroConfig().to_dict()
        assert "engine" not in data and "size_passes" not in data

    @pytest.mark.parametrize("data", [
        {"parallel_groups": "8"},
        {"parallel_groups": 2.5},
        {"parallel_groups": True},
        {"merging": "yes"},
        {"hot_filter": {"hot_names": "LMain;->run"}},
    ], ids=["str", "float", "bool", "str-flag", "str-hot-names"])
    def test_wrong_value_type_is_a_config_error(self, data):
        """A value of the wrong type is refused up front, naming its
        field, not left to fail (or silently pass) inside a build."""
        [field] = data
        with pytest.raises(ConfigError, match=field):
            CalibroConfig.from_dict(data)

    def test_unknown_engine_in_dict_is_a_config_error(self):
        """A --config file that still names an engine must surface as
        ConfigError (exit code 2): ``engine`` is an unknown key now."""
        with pytest.raises(ConfigError, match="unknown config keys: engine"):
            CalibroConfig.from_dict({"engine": "suffixarray"})


class TestSummarySchema:
    def test_summary_emits_exactly_the_documented_keys(self, ltbo_build):
        summary = ltbo_build.summary()
        assert tuple(summary) == SUMMARY_KEYS
        assert summary["schema_version"] == SUMMARY_SCHEMA_VERSION

    def test_to_json_round_trips(self, ltbo_build):
        doc = json.loads(ltbo_build.to_json())
        assert doc == json.loads(json.dumps(ltbo_build.summary()))
        assert doc["schema_version"] == SUMMARY_SCHEMA_VERSION

    def test_every_summary_key_is_documented_in_cli_md(self):
        from pathlib import Path

        doc = (Path(__file__).resolve().parents[2] / "docs" / "cli.md").read_text(
            encoding="utf-8"
        )
        for key in SUMMARY_KEYS:
            assert f"`{key}`" in doc, f"summary key '{key}' missing from docs/cli.md"
        for key in ("label", "seconds", "compile_cached", "total_groups"):
            assert f"`{key}`" in doc, f"service key '{key}' missing from docs/cli.md"


def test_jobs_clamped_to_cpu_count(small_app, monkeypatch):
    """The bugfix: asking for many groups on a small host must not fork
    a job per group."""
    import repro.suffixtree.parallel as par
    from repro import observability as obs

    # clamp_jobs reads the CPU count from repro.suffixtree.parallel.
    monkeypatch.setattr(par, "available_parallelism", lambda: 2)
    config = CalibroConfig.cto_ltbo_plopti(groups=8)  # jobs unset
    with obs.tracing() as tracer:
        build_app(small_app.dexfile, config)
    assert tracer.gauges["plopti.jobs"] == 2
