"""ServiceConfig: validation and versioned round-trip.

The service's construction surface is a frozen, validated dataclass
mirroring ``CalibroConfig``.
"""

from __future__ import annotations

import warnings

import pytest

from repro.core.errors import ConfigError
from repro.service import (
    SERVICE_CONFIG_SCHEMA_VERSION,
    BuildService,
    ServiceConfig,
)


# -- validation ---------------------------------------------------------------


def test_defaults_are_valid():
    config = ServiceConfig()
    assert config.cache_dir is None
    assert config.incremental is False


@pytest.mark.parametrize("kwargs", [
    {"cache_max_bytes": -1},
    {"max_workers": -1},
    {"max_workers": 0},
    {"shards": 0},
    {"shards": -1},
    {"max_workers": 4, "shards": 0},
    {"max_workers": 0, "shards": 2},
    {"cache_max_bytes": 0},
])
def test_bad_values_raise_config_error(kwargs):
    with pytest.raises(ConfigError):
        ServiceConfig(**kwargs)


@pytest.mark.parametrize("field, value", [
    ("shards", 2.5),
    ("incremental", "yes"),
    ("max_workers", True),
    ("cache_max_bytes", "1"),
    ("cache_dir", 5),
])
def test_wrong_value_type_is_a_config_error_naming_the_field(field, value):
    with pytest.raises(ConfigError, match=field):
        ServiceConfig.from_dict({field: value})


def test_config_is_frozen():
    config = ServiceConfig()
    with pytest.raises(Exception):
        config.shards = 4


def test_path_fields_normalized(tmp_path):
    config = ServiceConfig(cache_dir=tmp_path)
    assert config.cache_dir == str(tmp_path)


# -- versioned round-trip -----------------------------------------------------


def test_round_trip():
    config = ServiceConfig(
        cache_dir="cache", cache_max_bytes=1024, max_workers=2,
        shards=3, ledger="l.jsonl", metrics_path="m.prom", incremental=True,
    )
    doc = config.to_dict()
    assert doc["schema_version"] == SERVICE_CONFIG_SCHEMA_VERSION
    assert ServiceConfig.from_dict(doc) == config


def test_from_dict_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown"):
        ServiceConfig.from_dict({"schema_version": 1, "bogus": True})


@pytest.mark.parametrize(
    "name", ["cache_memory_entries", "group_timeout", "shard_timeout"]
)
def test_from_dict_rejects_removed_fields_as_unknown(name):
    """v4 dropped three fields no caller set; a v3 document that still
    carries one fails as an unknown key, never silently ignored."""
    doc = ServiceConfig().to_dict()
    doc["schema_version"] = 3
    doc[name] = 1
    with pytest.raises(ConfigError, match=f"unknown service config keys: {name}"):
        ServiceConfig.from_dict(doc)


def test_from_dict_rejects_newer_schema():
    doc = ServiceConfig().to_dict()
    doc["schema_version"] = SERVICE_CONFIG_SCHEMA_VERSION + 1
    with pytest.raises(ConfigError):
        ServiceConfig.from_dict(doc)


def test_from_dict_rejects_non_dict():
    with pytest.raises(ConfigError):
        ServiceConfig.from_dict(["not", "a", "dict"])


# -- the BuildService construction surface ------------------------------------


def test_service_accepts_config_silently():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with BuildService(ServiceConfig()) as service:
            assert service.config == ServiceConfig()


def test_unknown_kwargs_raise_type_error():
    with pytest.raises(TypeError):
        BuildService(definitely_not_a_kwarg=1)


def test_stats_embed_versioned_config(tmp_path):
    with BuildService(ServiceConfig(cache_dir=str(tmp_path))) as service:
        stats = service.stats()
    assert stats["config"]["schema_version"] == SERVICE_CONFIG_SCHEMA_VERSION
    assert stats["config"]["cache_dir"] == str(tmp_path)
