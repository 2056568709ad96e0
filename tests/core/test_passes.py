"""The pass table and the config's derived pass list."""

from __future__ import annotations

import pytest

from repro.core import CalibroConfig
from repro.core.errors import ConfigError
from repro.core.passes import (
    PASSES,
    MergePass,
    OutlinePass,
    PassContext,
    PassState,
)


class TestRegistry:
    def test_builtin_passes_satisfy_the_protocol(self):
        # The shape ``_run_passes`` relies on: a name, a phase, run().
        for name, cls in PASSES.items():
            instance = cls()
            assert instance.name == name
            assert instance.phase
            assert callable(instance.run)

    def test_registry_order_is_pipeline_order(self):
        assert tuple(PASSES) == ("outline", "merge")
        assert PASSES["outline"] is OutlinePass
        assert PASSES["merge"] is MergePass


class TestConfigPassList:
    def test_derived_pass_lists(self):
        assert CalibroConfig.baseline().passes == ()
        assert CalibroConfig.cto().passes == ()
        assert CalibroConfig.cto_ltbo().passes == ("outline",)
        assert CalibroConfig.cto_ltbo_plopti(2).with_merging().passes == (
            "outline",
            "merge",
        )

    def test_merging_alone_runs_only_the_merge_pass(self):
        assert CalibroConfig(merging=True).passes == ("merge",)

    def test_with_merging_sets_flag_and_extends_name(self):
        config = CalibroConfig.cto_ltbo_plopti(4).with_merging()
        assert config.merging is True
        assert config.name == "CTO+LTBO+PlOpti+Merge"

    def test_config_round_trips_merging_fields(self):
        config = CalibroConfig(
            cto_enabled=True, ltbo_enabled=True, merging=True, name="round-trip",
        )
        again = CalibroConfig.from_dict(config.to_dict())
        assert again.merging is True
        assert again.passes == ("outline", "merge")
        # The pass list is derived only: an explicit override is an
        # unknown config key.
        with pytest.raises(ConfigError, match="unknown config keys: size_passes"):
            CalibroConfig.from_dict({**config.to_dict(), "size_passes": ["merge"]})


class TestPipelineIntegration:
    def test_pass_state_starts_empty(self):
        state = PassState(methods=[])
        assert state.aliases == {}
        assert state.selection is None and state.ltbo is None
        assert state.merge is None
        context = PassContext()
        assert context.cache is None and context.pool is None
