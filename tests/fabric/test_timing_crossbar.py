"""Unit tests for fabric timing models and the passive crossbar."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.fabric.config import ConfigMatrix
from repro.fabric.crossbar import Crossbar
from repro.fabric.timing import FabricTechnology, FabricTiming
from repro.params import PAPER_PARAMS


class TestFabricTiming:
    def test_digital_uses_10ns_hop(self):
        t = FabricTiming.digital(PAPER_PARAMS)
        assert t.switch_hop_ps == 10_000
        assert t.technology is FabricTechnology.DIGITAL

    def test_lvds_hop_neglected(self):
        t = FabricTiming.lvds(PAPER_PARAMS)
        assert t.switch_hop_ps == 0
        assert not t.needs_switch_serdes

    def test_optical_matches_lvds(self):
        lvds = FabricTiming.lvds(PAPER_PARAMS)
        opt = FabricTiming.optical(PAPER_PARAMS)
        assert opt.switch_hop_ps == lvds.switch_hop_ps

    def test_lvds_end_to_end_is_120ns(self):
        # 10 + 30 + 20 + 0 + 20 + 30 + 10
        assert FabricTiming.lvds(PAPER_PARAMS).end_to_end_ps(PAPER_PARAMS) == 120_000

    def test_digital_end_to_end_is_130ns(self):
        # 10 + 30 + 20 + 10 + 20 + 30 + 10
        assert (
            FabricTiming.digital(PAPER_PARAMS).end_to_end_ps(PAPER_PARAMS) == 130_000
        )

    def test_switch_serdes_adds_two_conversions(self):
        t = FabricTiming(FabricTechnology.DIGITAL, 10_000, True)
        base = FabricTiming(FabricTechnology.DIGITAL, 10_000, False)
        diff = t.end_to_end_ps(PAPER_PARAMS) - base.end_to_end_ps(PAPER_PARAMS)
        assert diff == 2 * PAPER_PARAMS.serdes_ps

    def test_negative_hop_rejected(self):
        with pytest.raises(ConfigurationError):
            FabricTiming(FabricTechnology.LVDS, -1, False)


class TestCrossbar:
    def test_apply_configuration(self):
        params = PAPER_PARAMS.with_overrides(n_ports=4)
        xbar = Crossbar(params, FabricTiming.lvds(params))
        cfg = ConfigMatrix.from_pairs(4, [(0, 1), (2, 3)])
        xbar.apply(cfg)
        assert (0, 1) in xbar.active
        assert (1, 0) not in xbar.active
        assert xbar.reconfigurations == 1

    def test_reconfiguration_counter(self):
        params = PAPER_PARAMS.with_overrides(n_ports=4)
        xbar = Crossbar(params, FabricTiming.lvds(params))
        for _ in range(3):
            xbar.apply(ConfigMatrix(4))
        assert xbar.reconfigurations == 3

    def test_negative_reconfig_rejected(self):
        params = PAPER_PARAMS.with_overrides(n_ports=4)
        with pytest.raises(ConfigurationError):
            Crossbar(params, FabricTiming.lvds(params), reconfig_ps=-1)

    def test_path_latency_by_technology(self):
        params = PAPER_PARAMS.with_overrides(n_ports=4)
        lvds = Crossbar(params, FabricTiming.lvds(params))
        digital = Crossbar(params, FabricTiming.digital(params))
        assert digital.path_latency_ps() - lvds.path_latency_ps() == 10_000
