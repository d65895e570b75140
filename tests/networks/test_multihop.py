"""Unit tests for the multi-hop extension model."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.networks.multihop import MultiHopModel
from repro.params import PAPER_PARAMS


@pytest.fixture
def model():
    return MultiHopModel(PAPER_PARAMS, msg_bytes=512, k=4)


class TestValidation:
    def test_bad_message_size(self):
        with pytest.raises(ConfigurationError):
            MultiHopModel(PAPER_PARAMS, msg_bytes=0)

    def test_bad_k(self):
        with pytest.raises(ConfigurationError):
            MultiHopModel(PAPER_PARAMS, msg_bytes=64, k=0)

    def test_bad_hops(self, model):
        with pytest.raises(ConfigurationError):
            model.compare(0)


class TestSingleHopConsistency:
    """At one hop the model must agree with the single-crossbar accounting."""

    def test_tdm_path_fill_matches_pipe_latency(self, model):
        assert model.tdm_path_fill_ps(1) == PAPER_PARAMS.pipe_latency_ps

    def test_tdm_establishment_matches_circuit_setup(self, model):
        assert model.tdm_establishment_ps(1) == PAPER_PARAMS.circuit_setup_ps

    def test_wormhole_single_worm_matches_network_model(self):
        """One 64-byte message, one hop: same number as WormholeNetwork."""
        from repro.networks.wormhole import WormholeNetwork
        from repro.traffic.base import TrafficPhase, assign_seq
        from repro.types import Message

        params = PAPER_PARAMS.with_overrides(n_ports=8)
        model = MultiHopModel(params, msg_bytes=64)
        phase = TrafficPhase("t", [Message(src=0, dst=1, size=64)])
        assign_seq([phase])
        result = WormholeNetwork(params).run([phase])
        assert model.wormhole_message_ps(1) == result.records[0].done_ps


class TestScalingWithHops:
    def test_wormhole_latency_grows_faster(self, model):
        """Per-hop arbitration makes wormhole latency grow ~110 ns/hop
        while the passive TDM pipe grows only ~20 ns/hop."""
        tdm_growth = model.tdm_cached_message_ps(8) - model.tdm_cached_message_ps(1)
        worm_growth = model.wormhole_message_ps(8) - model.wormhole_message_ps(1)
        assert worm_growth > 4 * tdm_growth

    def test_tdm_stream_efficiency_hop_invariant(self, model):
        assert model.tdm_stream_efficiency(1) == model.tdm_stream_efficiency(8)

    def test_wormhole_buffering_grows(self, model):
        assert model.wormhole_buffer_bytes(8) == 8 * PAPER_PARAMS.worm_max_bytes
        assert model.compare(4).tdm_buffer_bytes == 0

    def test_establishment_grows_per_hop(self, model):
        delta = model.tdm_establishment_ps(5) - model.tdm_establishment_ps(4)
        assert delta == PAPER_PARAMS.scheduler_pass_ps


class TestComparison:
    def test_sweep_shape(self, model):
        rows = model.sweep((1, 2, 4))
        assert [r.hops for r in rows] == [1, 2, 4]
        # the cached TDM message is always cheaper than wormhole beyond 1 hop
        for r in rows[1:]:
            assert r.tdm_cached_message_ns < r.wormhole_message_ns

    def test_streaming_advantage(self, model):
        """512 B streams at 512/(7*80) over TDM; wormhole caps at 160/240."""
        c = model.compare(4)
        assert c.tdm_stream_efficiency == pytest.approx(512 / (7 * 80))
        assert c.wormhole_stream_efficiency == pytest.approx(160 / 240)
        assert c.tdm_stream_efficiency > c.wormhole_stream_efficiency

    def test_small_message_single_hop_wormhole_wins_latency(self):
        """At one hop and tiny messages, wormhole's one-shot latency can
        beat TDM's slot alignment — the regime the paper concedes."""
        model = MultiHopModel(PAPER_PARAMS, msg_bytes=8)
        c = model.compare(1)
        assert c.wormhole_message_ns < c.tdm_first_message_ns
