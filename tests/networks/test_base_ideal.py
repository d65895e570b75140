"""Unit tests for the network base class and the ideal network."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.networks.ideal import IdealNetwork, bottleneck_lower_bound_ps
from repro.params import PAPER_PARAMS
from repro.sim.rng import RngStreams
from repro.traffic.base import TrafficPhase, assign_seq
from repro.traffic.scatter import ScatterPattern
from repro.types import Message


@pytest.fixture
def params():
    return PAPER_PARAMS.with_overrides(n_ports=8)


def _phase(messages):
    phase = TrafficPhase("test", messages)
    assign_seq([phase])
    return phase


class TestLowerBound:
    def test_single_message(self, params):
        phase = _phase([Message(src=0, dst=1, size=100)])
        assert bottleneck_lower_bound_ps(phase, params) == 100 * 1250

    def test_fanout_bottleneck_is_source(self, params):
        phase = _phase([Message(src=0, dst=v, size=100) for v in range(1, 4)])
        assert bottleneck_lower_bound_ps(phase, params) == 300 * 1250

    def test_fanin_bottleneck_is_destination(self, params):
        phase = _phase([Message(src=u, dst=0, size=100) for u in range(1, 4)])
        assert bottleneck_lower_bound_ps(phase, params) == 300 * 1250

    def test_permutation_bottleneck_is_one_message(self, params):
        phase = _phase(
            [Message(src=u, dst=(u + 1) % 8, size=100) for u in range(8)]
        )
        assert bottleneck_lower_bound_ps(phase, params) == 100 * 1250


class TestIdealNetwork:
    def test_runs_at_bound(self, params):
        pattern = ScatterPattern(8, 64)
        phases = pattern.phases(RngStreams(0))
        bound = sum(bottleneck_lower_bound_ps(p, params) for p in phases)
        net = IdealNetwork(params)
        result = net.run(phases)
        assert result.makespan_ps == bound
        assert result.total_bytes == 7 * 64

    def test_conservation_checked(self, params):
        net = IdealNetwork(params)
        phases = ScatterPattern(8, 64).phases(RngStreams(0))
        result = net.run(phases)
        assert len(result.records) == 7

    def test_multi_phase_accumulates(self, params):
        net = IdealNetwork(params)
        a = _phase([Message(src=0, dst=1, size=80)])
        b = _phase([Message(src=1, dst=2, size=80)])
        b.messages[0].seq = 1
        result = net.run([a, b])
        assert len(result.phases) == 2
        assert result.phases[1].start_ps == result.phases[0].end_ps
        assert result.makespan_ps == 2 * 80 * 1250

    def test_empty_run_rejected(self, params):
        with pytest.raises(SimulationError):
            IdealNetwork(params).run([])

    def test_latency_stats(self, params):
        net = IdealNetwork(params)
        result = net.run(ScatterPattern(8, 64).phases(RngStreams(0)))
        stats = result.latency_stats()
        assert stats.count == 7
        assert stats.maximum <= result.makespan_ps


class TestIdealWithStaggeredInjection:
    def test_future_injects_respected(self, params):
        from repro.traffic.base import TrafficPhase, assign_seq

        phase = TrafficPhase(
            "staggered",
            [
                Message(src=0, dst=1, size=80),
                Message(src=0, dst=2, size=80, inject_ps=1_000_000),
            ],
        )
        assign_seq([phase])
        net = IdealNetwork(params)
        result = net.run([phase])
        late = next(r for r in result.records if r.dst == 2)
        assert late.start_ps >= 1_000_000
        assert late.done_ps == late.start_ps + 80 * 1250

    def test_makespan_at_least_bound(self, params):
        from repro.traffic.base import TrafficPhase, assign_seq

        phase = TrafficPhase(
            "mixed",
            [
                Message(src=0, dst=1, size=400),
                Message(src=2, dst=3, size=80, inject_ps=10_000),
            ],
        )
        assign_seq([phase])
        bound = bottleneck_lower_bound_ps(phase, params)
        result = IdealNetwork(params).run([phase])
        assert result.makespan_ps >= bound


class TestSizeMismatchGuard:
    def test_oversized_pattern_rejected_clearly(self, params):
        from repro.networks.tdm import TdmNetwork
        from repro.traffic.base import TrafficPhase, assign_seq

        phase = TrafficPhase("big", [Message(src=0, dst=12, size=64)])
        assign_seq([phase])
        net = TdmNetwork(params, k=2, mode="dynamic")  # params has 8 ports
        with pytest.raises(SimulationError, match="size mismatch"):
            net.run([phase])

    def test_windowed_path_also_guarded(self, params):
        from repro.networks.tdm import TdmNetwork
        from repro.traffic.base import TrafficPhase, assign_seq

        phase = TrafficPhase("big", [Message(src=0, dst=12, size=64)])
        assign_seq([phase])
        net = TdmNetwork(params, k=2, mode="dynamic", injection_window=2)
        with pytest.raises(SimulationError, match="size mismatch"):
            net.run([phase])
