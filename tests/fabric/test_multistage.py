"""Unit and property tests for the multistage fabric extension."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.fabric.config import ConfigMatrix
from repro.fabric.multistage import BenesNetwork, OmegaNetwork, is_power_of_two
from repro.sched.constrained import partition


class TestHelpers:
    def test_is_power_of_two(self):
        assert is_power_of_two(1)
        assert is_power_of_two(8)
        assert not is_power_of_two(6)
        assert not is_power_of_two(0)

    def test_bad_sizes_rejected(self):
        with pytest.raises(ConfigurationError):
            OmegaNetwork(6)
        with pytest.raises(ConfigurationError):
            BenesNetwork(12)


class TestOmega:
    def test_route_length(self):
        om = OmegaNetwork(8)
        assert len(om.route(0, 5)) == 3  # log2(8) stages

    def test_route_out_of_range(self):
        with pytest.raises(ConfigurationError):
            OmegaNetwork(8).route(0, 8)

    def test_identity_is_realizable(self):
        om = OmegaNetwork(8)
        cfg = ConfigMatrix.from_permutation(list(range(8)))
        assert om.is_realizable(cfg)

    def test_shuffle_conflict_detected(self):
        """Omega networks block some permutations; find one by search."""
        om = OmegaNetwork(8)
        blocked = None
        rng = np.random.default_rng(0)
        for _ in range(200):
            perm = rng.permutation(8)
            cfg = ConfigMatrix.from_permutation([int(x) for x in perm])
            if not om.is_realizable(cfg):
                blocked = cfg
                break
        assert blocked is not None, "no blocked permutation found (wrong model?)"

    def test_single_connection_never_conflicts(self):
        om = OmegaNetwork(16)
        for dst in range(16):
            cfg = ConfigMatrix.from_pairs(16, [(3, dst)])
            assert om.is_realizable(cfg)

    def test_partition_covers_everything(self):
        om = OmegaNetwork(8)
        cfg = ConfigMatrix.from_permutation([3, 7, 0, 4, 1, 5, 2, 6])
        passes = partition(om, cfg)
        union = set()
        for p in passes:
            assert om.is_realizable(p)
            union |= {tuple(c) for c in p.connections()}
        assert union == {tuple(c) for c in cfg.connections()}

    def test_partition_of_realizable_is_single_pass(self):
        om = OmegaNetwork(8)
        cfg = ConfigMatrix.from_permutation(list(range(8)))
        assert len(partition(om, cfg)) == 1


class TestBenes:
    def test_stage_count(self):
        assert BenesNetwork(8).n_stages == 5

    def test_identity_routed(self):
        bn = BenesNetwork(8)
        perm = list(range(8))
        stages = bn.route_permutation(perm)
        assert bn.verify(perm, stages)

    def test_reversal_routed(self):
        bn = BenesNetwork(8)
        perm = list(reversed(range(8)))
        stages = bn.route_permutation(perm)
        assert bn.verify(perm, stages)

    def test_swap_pairs(self):
        bn = BenesNetwork(4)
        perm = [1, 0, 3, 2]
        assert bn.verify(perm, bn.route_permutation(perm))

    def test_two_port_base_case(self):
        bn = BenesNetwork(2)
        assert bn.verify([1, 0], bn.route_permutation([1, 0]))
        assert bn.verify([0, 1], bn.route_permutation([0, 1]))

    def test_partial_permutation_rejected(self):
        with pytest.raises(ConfigurationError):
            BenesNetwork(4).route_permutation([1, 0, 3, 3])

    def test_any_partial_config_realizable(self):
        bn = BenesNetwork(8)
        cfg = ConfigMatrix.from_pairs(8, [(0, 5), (3, 2)])
        assert bn.is_realizable(cfg)

    @settings(max_examples=60, deadline=None)
    @given(st.permutations(list(range(8))))
    def test_every_permutation_routes_n8(self, perm):
        bn = BenesNetwork(8)
        stages = bn.route_permutation(list(perm))
        assert bn.verify(list(perm), stages)

    @settings(max_examples=30, deadline=None)
    @given(st.permutations(list(range(16))))
    def test_every_permutation_routes_n16(self, perm):
        bn = BenesNetwork(16)
        stages = bn.route_permutation(list(perm))
        assert bn.verify(list(perm), stages)
