"""Unit and property tests for the fat-tree fabric constraint.

The fat tree is :func:`repro.topo.binary_fat_tree`, a switch graph whose
:class:`~repro.topo.Topology` predicate (per-hop trunk capacity along its
routes) is what :class:`repro.sched.ConstrainedScheduler` checks.  In an
``n``-endpoint tree, subtree ``s`` of level ``l`` is switch
``n - (n >> (l - 1)) + s``: for ``n = 8`` the level-1 switches are 0-3,
the level-2 switches 4-5 and the root 6.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.fabric.config import ConfigMatrix
from repro.sched.constrained import partition
from repro.topo import binary_fat_tree


def required_degree(topo, conns) -> int:
    """Lower bound on the TDM passes ``conns`` need on ``topo``.

    The worst ``ceil(load / links)`` over the directed hops; 0 for no
    connections, 1 when every hop is within capacity.  The partition
    tests below check :func:`partition` against it.
    """
    conns = list(conns)
    if not conns:
        return 0
    loads = topo.trunk_loads(conns)
    return max(
        (-(-load // len(topo.trunk_links(a, b))) for (a, b), load in loads.items()),
        default=1,
    )


def overloaded_hops(topo, cfg) -> list[tuple[int, int]]:
    loads = topo.trunk_loads(cfg.connections())
    return sorted(
        hop for hop, load in loads.items() if load > len(topo.trunk_links(*hop))
    )


class TestStructure:
    def test_bad_sizes(self):
        with pytest.raises(ConfigurationError):
            binary_fat_tree(6)
        with pytest.raises(ConfigurationError):
            binary_fat_tree(1)
        with pytest.raises(ConfigurationError):
            binary_fat_tree(8, taper=0)

    def test_subtree_of(self):
        """A route climbs through the switch of each subtree holding its
        source and descends through those holding its destination."""
        ft = binary_fat_tree(8)
        assert ft.endpoint_switch[5] == 2  # level-1 subtree 5 >> 1
        # up: subtree 2 of level 1, subtree 1 of level 2, the root;
        # down: subtree 0 of level 2, subtree 0 of level 1
        assert ft.route(5, 1) == (2, 5, 6, 4, 0)

    def test_edge_capacity_full_bisection(self):
        ft = binary_fat_tree(16, taper=1)
        assert len(ft.trunk_links(0, 8)) == 2  # level 1 -> 2
        assert len(ft.trunk_links(12, 14)) == 8  # level 3 -> root

    def test_edge_capacity_tapered(self):
        ft = binary_fat_tree(16, taper=4)
        assert len(ft.trunk_links(0, 8)) == 1  # floored at 1
        assert len(ft.trunk_links(12, 14)) == 2

    def test_no_edge_above_root(self):
        ft = binary_fat_tree(8)
        root = 6
        assert ft.n_switches == 7
        assert ft.neighbors(root) == (4, 5)  # its two children, no parent

    def test_crossing_level(self):
        """A route crossing level ``l`` visits ``2 l - 1`` switches."""
        ft = binary_fat_tree(8)
        assert ft.route(0, 1) == (0,)  # siblings share a level-1 switch
        assert len(ft.route(0, 7)) == 5  # opposite halves: level 3
        assert ft.trunk_loads([(3, 3)]) == {}  # loopback crosses nothing


class TestRealizability:
    def test_sibling_traffic_never_blocked(self):
        ft = binary_fat_tree(8, taper=8)
        cfg = ConfigMatrix.from_pairs(8, [(0, 1), (2, 3), (4, 5), (6, 7)])
        assert ft.is_realizable(cfg)  # never leaves a level-1 switch

    def test_full_bisection_realizes_any_permutation(self):
        ft = binary_fat_tree(16, taper=1)
        rng = np.random.default_rng(0)
        for _ in range(50):
            perm = [int(x) for x in rng.permutation(16)]
            cfg = ConfigMatrix.from_permutation(perm)
            assert ft.is_realizable(cfg)

    def test_tapered_blocks_cross_traffic(self):
        ft = binary_fat_tree(8, taper=4)
        # bit reversal pushes everything through the upper levels
        cfg = ConfigMatrix.from_permutation([7, 6, 5, 4, 3, 2, 1, 0])
        assert not ft.is_realizable(cfg)
        assert overloaded_hops(ft, cfg)

    def test_directions_independent(self):
        """Up and down directions of one trunk do not contend."""
        ft = binary_fat_tree(8, taper=8)  # every trunk has one link
        # (0 -> 4) climbs out of {0,1}; (5 -> 1) descends into it: the
        # trunks above {0,1} carry one connection per direction
        cfg = ConfigMatrix.from_pairs(8, [(0, 4), (5, 1)])
        assert ft.is_realizable(cfg)

    def test_same_direction_contends(self):
        ft = binary_fat_tree(8, taper=8)
        # both connections climb out of the {0,1} subtree
        cfg = ConfigMatrix.from_pairs(8, [(0, 4), (1, 5)])
        assert not ft.is_realizable(cfg)


class TestDegreesAndPartition:
    def test_required_degree_empty(self):
        assert required_degree(binary_fat_tree(8), []) == 0

    def test_required_degree_bit_reversal(self):
        ft = binary_fat_tree(8, taper=4)
        cfg = ConfigMatrix.from_permutation([7, 6, 5, 4, 3, 2, 1, 0])
        assert required_degree(ft, cfg.connections()) == 4

    def test_partition_covers_and_is_realizable(self):
        ft = binary_fat_tree(8, taper=4)
        cfg = ConfigMatrix.from_permutation([7, 6, 5, 4, 3, 2, 1, 0])
        passes = partition(ft, cfg)
        union = set()
        for p in passes:
            assert ft.is_realizable(p)
            union |= {tuple(c) for c in p.connections()}
        assert union == {tuple(c) for c in cfg.connections()}

    def test_partition_meets_lower_bound(self):
        ft = binary_fat_tree(8, taper=4)
        cfg = ConfigMatrix.from_permutation([7, 6, 5, 4, 3, 2, 1, 0])
        assert len(partition(ft, cfg)) >= required_degree(ft, cfg.connections())

    def test_partition_of_realizable_is_single_pass(self):
        ft = binary_fat_tree(8, taper=1)
        cfg = ConfigMatrix.from_permutation([1, 0, 3, 2, 5, 4, 7, 6])
        assert len(partition(ft, cfg)) == 1


class TestEdgeLoads:
    """Per-hop load accounting under taper > 1 (the thinned upper levels)."""

    def test_loads_count_both_directions(self):
        ft = binary_fat_tree(8, taper=2)
        loads = ft.trunk_loads([(0, 4), (1, 5)])
        # both connections climb out of the {0,1} subtree (switch 0) and
        # descend into the sibling pair {4,5} (switch 2): every hop on
        # the route carries both
        assert loads == {(0, 4): 2, (4, 6): 2, (6, 5): 2, (5, 2): 2}

    def test_sibling_traffic_loads_nothing(self):
        ft = binary_fat_tree(8, taper=4)
        assert ft.trunk_loads([(0, 1), (6, 7)]) == {}

    def test_taper_shrinks_capacity_not_load(self):
        """Taper scales capacity only: the same connection set loads the
        same hops, but realisability flips as capacity thins."""
        conns = [(0, 4), (1, 5), (2, 6), (3, 7)]
        full = binary_fat_tree(8, taper=1)
        thin = binary_fat_tree(8, taper=4)
        assert full.trunk_loads(conns) == thin.trunk_loads(conns)
        cfg = ConfigMatrix.from_pairs(8, conns)
        assert full.is_realizable(cfg)
        assert not thin.is_realizable(cfg)

    def test_overload_names_the_thinned_edge(self):
        ft = binary_fat_tree(8, taper=4)  # level-1 trunks have one link
        cfg = ConfigMatrix.from_pairs(8, [(0, 4), (1, 5)])
        assert (0, 4) in overloaded_hops(ft, cfg)


class TestRequiredDegreeBound:
    """The multiplexing-degree lower bound (TDM passes a set needs)."""

    def test_bound_is_load_over_capacity(self):
        ft = binary_fat_tree(8, taper=4)
        # two connections up through a one-link level-1 trunk: ceil(2/1)
        assert required_degree(ft, [(0, 4), (1, 5)]) == 2

    def test_bound_monotone_in_taper(self):
        conns = list(
            ConfigMatrix.from_permutation([7, 6, 5, 4, 3, 2, 1, 0]).connections()
        )
        degrees = [
            required_degree(binary_fat_tree(8, taper=t), conns) for t in (1, 2, 4, 8)
        ]
        assert degrees == sorted(degrees)
        assert degrees[0] == 1  # full bisection realises any permutation

    def test_bound_never_exceeds_partition(self):
        rng = np.random.default_rng(7)
        for taper in (2, 4, 8):
            ft = binary_fat_tree(16, taper=taper)
            perm = [int(x) for x in rng.permutation(16)]
            cfg = ConfigMatrix.from_permutation(perm)
            assert required_degree(ft, cfg.connections()) <= len(partition(ft, cfg))


@settings(max_examples=60, deadline=None)
@given(st.permutations(list(range(16))), st.integers(1, 8))
def test_property_partition_sound(perm, taper):
    """Any permutation partitions into realisable passes covering it."""
    ft = binary_fat_tree(16, taper=taper)
    cfg = ConfigMatrix.from_permutation(list(perm))
    passes = partition(ft, cfg)
    union = set()
    for p in passes:
        assert ft.is_realizable(p)
        union |= {tuple(c) for c in p.connections()}
    assert union == {tuple(c) for c in cfg.connections()}
    assert len(passes) >= required_degree(ft, cfg.connections())
