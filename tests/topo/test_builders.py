"""Unit tests for the topology builders (repro.topo.builders)."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.topo import fat_tree, full_mesh, line


class TestFullMesh:
    def test_shape(self):
        topo = full_mesh(64, n_switches=16, links_per_pair=4)
        assert topo.n_endpoints == 64
        assert topo.n_switches == 16
        # C(16, 2) pairs x 4 parallel links
        assert topo.n_links == 16 * 15 // 2 * 4
        assert topo.diameter() == 2

    def test_endpoints_striped(self):
        topo = full_mesh(64, n_switches=16, links_per_pair=4)
        assert topo.endpoint_switch[0] == 0
        assert topo.endpoint_switch[3] == 0
        assert topo.endpoint_switch[4] == 1
        assert topo.endpoint_switch[63] == 15

    def test_every_pair_directly_linked(self):
        topo = full_mesh(64, n_switches=16, links_per_pair=2)
        for a in range(16):
            for b in range(a + 1, 16):
                assert len(topo.trunk_links(a, b)) == 2

    def test_indivisible_endpoint_count_rejected(self):
        with pytest.raises(ConfigurationError):
            full_mesh(65, n_switches=16)

    def test_scales_to_1024(self):
        topo = full_mesh(1024, n_switches=16, links_per_pair=4)
        assert topo.n_endpoints == 1024
        assert topo.diameter() == 2


class TestFatTree:
    def test_shape_64(self):
        topo = fat_tree(64, leaf_size=16, taper=1)
        # 4 leaves + spines; every leaf links to every spine
        n_leaves = 4
        n_spines = topo.n_switches - n_leaves
        assert n_spines >= 1
        assert topo.n_links == n_leaves * n_spines
        assert topo.diameter() == 3

    def test_taper_thins_spines(self):
        """The spine count is exactly ``max(1, leaf_size // taper)``; the
        mesh-a2a golden digests depend on it."""
        n_leaves = 4
        for taper, n_spines in ((1, 16), (2, 8), (4, 4), (16, 1), (32, 1)):
            topo = fat_tree(64, leaf_size=16, taper=taper)
            assert topo.n_switches - n_leaves == n_spines
            assert topo.n_links == n_leaves * n_spines
            assert topo.diameter() == 3

    def test_endpoints_on_leaves_only(self):
        topo = fat_tree(64, leaf_size=16, taper=1)
        n_leaves = 4
        for e in range(64):
            assert topo.endpoint_switch[e] < n_leaves

    def test_indivisible_leaf_size_rejected(self):
        with pytest.raises(ConfigurationError):
            fat_tree(60, leaf_size=16)

    def test_scales_to_1024(self):
        topo = fat_tree(1024, leaf_size=16, taper=1)
        assert topo.n_endpoints == 1024
        assert topo.diameter() == 3


class TestLine:
    def test_line_route_crosses_every_switch(self):
        topo = line(4)
        assert topo.n_switches == 4
        assert topo.route(0, 1) == (0, 1, 2, 3)
        assert topo.diameter() == 4

    def test_line_one_hop_special_case(self):
        topo = line(1)
        assert topo.is_single_switch
        assert topo.route(0, 1) == (0,)
