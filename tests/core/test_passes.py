"""Which size-reduction stages a config runs: LTBO with
``ltbo_enabled``, global function merging with ``merging``."""

from __future__ import annotations

import pytest

from repro.core import CalibroConfig, build_app
from repro.core.errors import ConfigError
from repro.workloads import app_spec, generate_app


@pytest.fixture(scope="module")
def dexfile():
    return generate_app(app_spec("Taobao", scale=0.08)).dexfile


class TestConfigPassList:
    @pytest.mark.parametrize(
        "config, ltbo, merge",
        [
            (CalibroConfig.baseline(), False, False),
            (CalibroConfig.cto(), False, False),
            (CalibroConfig.cto_ltbo(), True, False),
            (CalibroConfig.cto_ltbo_plopti(2).with_merging(), True, True),
            (CalibroConfig(merging=True), False, True),
        ],
        ids=["baseline", "cto", "cto_ltbo", "plopti_merge", "merging_only"],
    )
    def test_derived_pass_lists(self, dexfile, config, ltbo, merge):
        build = build_app(dexfile, config)
        assert (build.ltbo is not None) == ltbo
        assert (build.merge is not None) == merge
        assert (build.trace.find("build.ltbo") is not None) == ltbo
        assert (build.trace.find("build.merge") is not None) == merge
        assert build.summary()["merging"] is merge

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
        assert again.ltbo_enabled is True
        # The stages follow the flags only: an explicit pass list is an
        # unknown config key.
        with pytest.raises(ConfigError, match="unknown config keys: size_passes"):
            CalibroConfig.from_dict({**config.to_dict(), "size_passes": ["merge"]})
