"""Unit tests for the switch-graph topology layer (repro.topo.graph)."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.params import PAPER_PARAMS
from repro.topo import Topology, TrunkLink, fat_tree, full_mesh, line


class TestTrunkLink:
    def test_orientation_enforced(self):
        with pytest.raises(ConfigurationError):
            TrunkLink(index=0, a=2, b=1, a_port=0, b_port=0)

    def test_port_on_and_other(self):
        link = TrunkLink(index=0, a=1, b=3, a_port=5, b_port=7)
        assert link.port_on(1) == 5
        assert link.port_on(3) == 7
        assert link.other(1) == 3
        assert link.other(3) == 1
        with pytest.raises(ConfigurationError):
            link.port_on(2)


class TestSingleSwitch:
    def test_single_switch_shape(self):
        topo = Topology.single_switch(8)
        assert topo.is_single_switch
        assert topo.n_switches == 1
        assert topo.n_links == 0
        assert topo.diameter() == 1
        assert topo.route(0, 7) == (0,)

    def test_single_switch_latency_matches_pipe(self):
        topo = Topology.single_switch(8)
        assert (
            topo.path_latency_ps(PAPER_PARAMS, 1) == PAPER_PARAMS.pipe_latency_ps
        )


class TestValidation:
    def test_endpoint_port_collision_rejected(self):
        # two endpoints on the same (switch, port)
        with pytest.raises(ConfigurationError):
            Topology(
                name="bad",
                n_endpoints=2,
                switch_ports=(4,),
                endpoint_switch=(0, 0),
                endpoint_port=(1, 1),
                links=(),
            )

    def test_trunk_endpoint_port_collision_rejected(self):
        with pytest.raises(ConfigurationError):
            Topology(
                name="bad",
                n_endpoints=2,
                switch_ports=(2, 2),
                endpoint_switch=(0, 1),
                endpoint_port=(0, 0),
                links=(TrunkLink(index=0, a=0, b=1, a_port=0, b_port=1),),
            )

    def test_disconnected_diameter_raises(self):
        topo = Topology(
            name="split",
            n_endpoints=2,
            switch_ports=(2, 2),
            endpoint_switch=(0, 1),
            endpoint_port=(0, 0),
            links=(),
        )
        with pytest.raises(ConfigurationError):
            topo.diameter()
        assert topo.route(0, 1) is None


class TestRouting:
    def test_route_is_deterministic(self):
        topo = full_mesh(64, n_switches=16, links_per_pair=4)
        for u, v in [(0, 63), (5, 40), (17, 2)]:
            first = topo.route(u, v)
            for _ in range(5):
                assert topo.route(u, v) == first

    def test_route_length_matches_diameter_bound(self):
        topo = full_mesh(64, n_switches=16, links_per_pair=4)
        assert topo.diameter() == 2
        for u in range(0, 64, 7):
            for v in range(1, 64, 11):
                if u == v:
                    continue
                path = topo.route(u, v)
                assert path is not None
                assert 1 <= len(path) <= 2

    def test_intra_switch_route_is_one_hop(self):
        topo = full_mesh(64, n_switches=16, links_per_pair=4)
        # endpoints 0..3 sit on switch 0
        assert topo.route(0, 3) == (0,)

    def test_health_mask_reroutes(self):
        topo = line(2)  # two switches, one trunk group
        healthy_all = topo.route(0, 1)
        assert healthy_all == (0, 1)
        # masking every parallel link of the only trunk partitions the graph
        import numpy as np

        mask = np.zeros(topo.n_links, dtype=bool)
        assert topo.route(0, 1, mask) is None

    def test_masked_routes_do_not_leak_into_unmasked_ones(self):
        import numpy as np

        topo = full_mesh(12, n_switches=3, links_per_pair=1)
        assert topo.route(0, 4) == (0, 1)
        mask = np.ones(topo.n_links, dtype=bool)
        mask[list(topo.trunk_links(0, 1))] = False
        assert topo.route(0, 4, mask) == (0, 2, 1)
        assert topo.route(0, 4) == (0, 1)

    def test_fattree_routes_climb_one_spine(self):
        topo = fat_tree(64, leaf_size=16, taper=1)
        assert topo.diameter() == 3
        path = topo.route(0, 63)
        assert path is not None
        assert len(path) == 3  # leaf -> spine -> leaf


class TestLatency:
    @pytest.mark.parametrize("hops", [1, 2, 3, 4, 6])
    def test_path_latency_matches_analytic_fill(self, hops):
        from repro.networks.multihop import MultiHopModel

        topo = line(max(hops, 1))
        model = MultiHopModel(PAPER_PARAMS, 80)
        assert topo.path_latency_ps(PAPER_PARAMS, hops) == model.tdm_path_fill_ps(
            hops
        )

    def test_latency_monotone_in_hops(self):
        topo = line(4)
        lat = [topo.path_latency_ps(PAPER_PARAMS, h) for h in (1, 2, 3, 4)]
        assert lat == sorted(lat)
        assert len(set(lat)) == 4
