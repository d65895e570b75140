"""Unit tests for the traffic pattern generators."""

from __future__ import annotations

import pytest

from repro.errors import TrafficError
from repro.sim.rng import RngStreams
from repro.traffic.alltoall import AllToAllPattern, shift_permutation
from repro.traffic.base import mesh_dims
from repro.traffic.hybrid import HybridPattern
from repro.traffic.mesh import (
    OrderedMeshPattern,
    RandomMeshPattern,
    neighbor_permutations,
    torus_neighbors,
)
from repro.traffic.nas import NasLikeTrace
from repro.traffic.scatter import ScatterPattern
from repro.traffic.synthetic import (
    BitComplementPattern,
    HotspotPattern,
    PermutationPattern,
    TornadoPattern,
    UniformRandomPattern,
)
from repro.traffic.twophase import TwoPhasePattern


@pytest.fixture
def rng():
    return RngStreams(7)


class TestBase:
    def test_mesh_dims_128(self):
        assert mesh_dims(128) == (16, 8)

    def test_mesh_dims_16(self):
        assert mesh_dims(16) == (4, 4)

    def test_mesh_dims_prime_rejected(self):
        with pytest.raises(TrafficError):
            mesh_dims(13)

    def test_mesh_dims_too_small(self):
        with pytest.raises(TrafficError):
            mesh_dims(2)

    def test_seq_unique_across_phases(self, rng):
        phases = TwoPhasePattern(16, 64, nn_rounds=2).phases(rng)
        seqs = [m.seq for p in phases for m in p.messages]
        assert len(seqs) == len(set(seqs))

    def test_bad_size_rejected(self):
        with pytest.raises(TrafficError):
            ScatterPattern(16, 0)


class TestScatter:
    def test_message_count(self, rng):
        phases = ScatterPattern(16, 64).phases(rng)
        assert len(phases) == 1
        assert len(phases[0].messages) == 15

    def test_all_from_source(self, rng):
        phases = ScatterPattern(16, 64, source=3).phases(rng)
        assert all(m.src == 3 for m in phases[0].messages)
        assert 3 not in {m.dst for m in phases[0].messages}

    def test_fully_static(self, rng):
        phase = ScatterPattern(16, 64).phases(rng)[0]
        assert phase.dynamic_conns() == set()

    def test_preload_configs_cover_in_order(self, rng):
        phase = ScatterPattern(16, 64).phases(rng)[0]
        assert len(phase.preload_configs) == 15
        firsts = [next(iter(c.connections())) for c in phase.preload_configs]
        assert [f.dst for f in firsts] == [m.dst for m in phase.messages]

    def test_bad_source(self):
        with pytest.raises(TrafficError):
            ScatterPattern(16, 64, source=16)


class TestMesh:
    def test_torus_neighbors_distinct(self):
        nbrs = torus_neighbors(16)
        for u, dirs in nbrs.items():
            assert len(set(dirs.values())) == 4
            assert u not in dirs.values()

    def test_neighbor_permutations_are_permutations(self):
        perms = neighbor_permutations(16)
        for d, p in perms.items():
            assert sorted(p) == list(range(16))

    def test_ordered_message_count(self, rng):
        phase = OrderedMeshPattern(16, 64, rounds=3).phases(rng)[0]
        assert len(phase.messages) == 16 * 4 * 3

    def test_ordered_is_deterministic(self):
        a = OrderedMeshPattern(16, 64).phases(RngStreams(1))[0]
        b = OrderedMeshPattern(16, 64).phases(RngStreams(2))[0]
        assert [(m.src, m.dst) for m in a.messages] == [
            (m.src, m.dst) for m in b.messages
        ]

    def test_random_same_multiset_different_order(self):
        o = OrderedMeshPattern(16, 64, rounds=2).phases(RngStreams(1))[0]
        r = RandomMeshPattern(16, 64, rounds=2).phases(RngStreams(1))[0]
        assert sorted((m.src, m.dst) for m in o.messages) == sorted(
            (m.src, m.dst) for m in r.messages
        )
        assert [(m.src, m.dst) for m in o.messages] != [
            (m.src, m.dst) for m in r.messages
        ]

    def test_random_reproducible_by_seed(self):
        a = RandomMeshPattern(16, 64).phases(RngStreams(5))[0]
        b = RandomMeshPattern(16, 64).phases(RngStreams(5))[0]
        assert [(m.src, m.dst) for m in a.messages] == [
            (m.src, m.dst) for m in b.messages
        ]

    def test_static_conns_are_all_nn(self, rng):
        phase = RandomMeshPattern(16, 64).phases(rng)[0]
        assert phase.connection_set() == phase.static_conns
        assert len(phase.static_conns) == 64

    def test_preload_configs_are_four_perms(self, rng):
        phase = OrderedMeshPattern(16, 64).phases(rng)[0]
        assert len(phase.preload_configs) == 4
        for cfg in phase.preload_configs:
            assert len(cfg) == 16


class TestAllToAll:
    def test_shift_permutation(self):
        assert shift_permutation(4, 1) == [1, 2, 3, 0]
        with pytest.raises(ValueError):
            shift_permutation(4, 0)

    def test_message_count(self, rng):
        phase = AllToAllPattern(8, 64).phases(rng)[0]
        assert len(phase.messages) == 8 * 7

    def test_every_pair_once(self, rng):
        phase = AllToAllPattern(8, 64).phases(rng)[0]
        pairs = {(m.src, m.dst) for m in phase.messages}
        assert len(pairs) == 56

    def test_rounds_are_permutations(self, rng):
        phase = AllToAllPattern(8, 64).phases(rng)[0]
        first_round = phase.messages[:8]
        assert sorted(m.src for m in first_round) == list(range(8))
        assert sorted(m.dst for m in first_round) == list(range(8))

    def test_preload_configs(self, rng):
        phase = AllToAllPattern(8, 64).phases(rng)[0]
        assert len(phase.preload_configs) == 7


class TestTwoPhase:
    def test_two_phases(self, rng):
        phases = TwoPhasePattern(16, 64, nn_rounds=4).phases(rng)
        assert len(phases) == 2
        assert "all-to-all" in phases[0].name
        assert "random-mesh" in phases[1].name

    def test_counts(self, rng):
        phases = TwoPhasePattern(16, 64, nn_rounds=4).phases(rng)
        assert len(phases[0].messages) == 16 * 15
        assert len(phases[1].messages) == 16 * 4 * 4

    def test_bad_rounds(self):
        with pytest.raises(ValueError):
            TwoPhasePattern(16, 64, nn_rounds=0)


class TestHybrid:
    def test_determinism_validated(self):
        with pytest.raises(TrafficError):
            HybridPattern(16, 64, determinism=1.5)

    def test_full_determinism_only_static(self, rng):
        phase = HybridPattern(16, 64, determinism=1.0, n_static=2).phases(rng)[0]
        static = phase.static_conns
        assert all(m.connection in static for m in phase.messages)

    def test_zero_determinism_mostly_random(self, rng):
        phase = HybridPattern(
            16, 64, determinism=0.0, messages_per_node=64, n_static=2
        ).phases(rng)[0]
        outside = sum(1 for m in phase.messages if m.connection not in phase.static_conns)
        assert outside > len(phase.messages) * 0.7

    def test_fraction_tracks_determinism(self, rng):
        det = 0.8
        phase = HybridPattern(
            64, 64, determinism=det, messages_per_node=64, n_static=2
        ).phases(rng)[0]
        inside = sum(1 for m in phase.messages if m.connection in phase.static_conns)
        frac = inside / len(phase.messages)
        assert abs(frac - det) < 0.07  # random draws can also land on static dests

    def test_no_self_messages(self, rng):
        phase = HybridPattern(16, 64, determinism=0.2).phases(rng)[0]
        assert all(m.src != m.dst for m in phase.messages)

    def test_static_permutations(self):
        pats = HybridPattern(16, 64, determinism=0.5, n_static=3).static_permutations()
        assert len(pats) == 3
        for p in pats:
            assert sorted(p) == list(range(16))


class TestSynthetic:
    def test_uniform_no_self(self, rng):
        phase = UniformRandomPattern(16, 64, messages_per_node=8).phases(rng)[0]
        assert all(m.src != m.dst for m in phase.messages)
        assert len(phase.messages) == 128

    def test_hotspot_fraction(self, rng):
        phase = HotspotPattern(
            16, 64, hotspot=0, hot_fraction=1.0, messages_per_node=4
        ).phases(rng)[0]
        hot = sum(1 for m in phase.messages if m.dst == 0)
        assert hot >= len(phase.messages) * 0.9

    def test_permutation_fixed_partner(self, rng):
        phase = PermutationPattern(16, 64, messages_per_node=4).phases(rng)[0]
        partners = {}
        for m in phase.messages:
            partners.setdefault(m.src, set()).add(m.dst)
        assert all(len(d) == 1 for d in partners.values())

    def test_bit_complement(self, rng):
        phase = BitComplementPattern(16, 64, messages_per_node=1).phases(rng)[0]
        assert all(m.dst == m.src ^ 15 for m in phase.messages)

    def test_bit_complement_needs_pow2(self):
        with pytest.raises(TrafficError):
            BitComplementPattern(12, 64)

    def test_tornado(self, rng):
        phase = TornadoPattern(16, 64, messages_per_node=1).phases(rng)[0]
        assert all(m.dst == (m.src + 7) % 16 for m in phase.messages)


class TestNasLike:
    def test_phases_generated(self, rng):
        phases = NasLikeTrace(16, 64, n_phases=5, rounds_per_phase=2).phases(rng)
        assert len(phases) == 5
        for p in phases:
            assert p.messages

    def test_reproducible(self):
        a = NasLikeTrace(16, 64, n_phases=4).phases(RngStreams(3))
        b = NasLikeTrace(16, 64, n_phases=4).phases(RngStreams(3))
        assert [p.name for p in a] == [p.name for p in b]
        assert [(m.src, m.dst) for p in a for m in p.messages] == [
            (m.src, m.dst) for p in b for m in p.messages
        ]

    def test_static_conns_subset_of_used(self, rng):
        for phase in NasLikeTrace(16, 64, n_phases=6).phases(rng):
            assert phase.static_conns <= phase.connection_set()

    def test_bad_params(self):
        with pytest.raises(TrafficError):
            NasLikeTrace(16, 64, n_phases=0)
