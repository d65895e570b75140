"""Unit tests for the circuit-switching baseline."""

from __future__ import annotations

import pytest

from repro.networks.circuit import CircuitNetwork
from repro.params import PAPER_PARAMS
from repro.sim.rng import RngStreams
from repro.traffic.base import TrafficPhase, assign_seq
from repro.traffic.scatter import ScatterPattern
from repro.traffic.synthetic import UniformRandomPattern
from repro.types import Message


@pytest.fixture
def params():
    return PAPER_PARAMS.with_overrides(n_ports=8)


def _phase(messages):
    phase = TrafficPhase("test", messages)
    assign_seq([phase])
    return phase


class TestSingleMessage:
    def test_delivery(self, params):
        net = CircuitNetwork(params)
        result = net.run([_phase([Message(src=0, dst=1, size=80)])])
        assert len(result.records) == 1
        rec = result.records[0]
        # setup (req wire + pass + grant wire) + serialisation + pipe
        expected_min = (
            params.circuit_setup_ps
            + params.message_bytes_ps(80)
            + params.pipe_latency_ps
        )
        assert rec.done_ps >= expected_min
        # the SL clock quantises the pass, so allow one extra period
        assert rec.done_ps <= expected_min + 2 * params.scheduler_pass_ps

    def test_counters(self, params):
        net = CircuitNetwork(params)
        result = net.run([_phase([Message(src=0, dst=1, size=80)])])
        assert result.counters["circuits_established"] == 1


class TestCircuitReuse:
    def test_same_destination_reuses_circuit(self, params):
        msgs = [Message(src=0, dst=1, size=80) for _ in range(4)]
        net = CircuitNetwork(params)
        result = net.run([_phase(msgs)])
        assert len(result.records) == 4
        # only the first message pays establishment
        assert result.counters["circuits_established"] == 1

    def test_different_destinations_reestablish(self, params):
        msgs = [Message(src=0, dst=v, size=80) for v in (1, 2, 3)]
        net = CircuitNetwork(params)
        result = net.run([_phase(msgs)])
        assert result.counters["circuits_established"] == 3

    def test_reuse_is_faster(self, params):
        same = [Message(src=0, dst=1, size=80) for _ in range(8)]
        diff = [Message(src=0, dst=1 + (i % 4), size=80) for i in range(8)]
        r_same = CircuitNetwork(params).run([_phase(same)])
        r_diff = CircuitNetwork(params).run([_phase(diff)])
        assert r_same.makespan_ps < r_diff.makespan_ps


class TestContention:
    def test_output_contention_serialises(self, params):
        msgs = [Message(src=u, dst=7, size=80) for u in range(4)]
        net = CircuitNetwork(params)
        result = net.run([_phase(msgs)])
        assert len(result.records) == 4
        # four circuits through one output port strictly serialise
        finish_times = sorted(r.done_ps for r in result.records)
        gaps = [b - a for a, b in zip(finish_times, finish_times[1:])]
        assert all(g >= params.message_bytes_ps(80) for g in gaps)

    def test_disjoint_pairs_parallel(self, params):
        msgs = [Message(src=u, dst=u + 4, size=800) for u in range(4)]
        net = CircuitNetwork(params)
        result = net.run([_phase(msgs)])
        serial_time = 4 * params.message_bytes_ps(800)
        assert result.makespan_ps < serial_time  # clearly overlapped

    def test_input_serialisation(self, params):
        """One source cannot hold two circuits at once."""
        msgs = [Message(src=0, dst=1, size=800), Message(src=0, dst=2, size=800)]
        net = CircuitNetwork(params)
        result = net.run([_phase(msgs)])
        assert result.makespan_ps > 2 * params.message_bytes_ps(800)


class TestWorkloads:
    def test_scatter_completes(self, params):
        net = CircuitNetwork(params)
        result = net.run(ScatterPattern(8, 64).phases(RngStreams(0)))
        assert len(result.records) == 7

    def test_uniform_completes_and_conserves(self, params):
        pattern = UniformRandomPattern(8, 128, messages_per_node=4)
        net = CircuitNetwork(params)
        result = net.run(pattern.phases(RngStreams(2)))
        assert len(result.records) == 32
        assert net.ledger.total_delivered == 32 * 128

    def test_large_messages_efficient(self, params):
        """Setup cost amortises for large transfers (paper's observation)."""
        from repro.metrics.efficiency import efficiency

        small_pat = UniformRandomPattern(8, 64, messages_per_node=4)
        large_pat = UniformRandomPattern(8, 4096, messages_per_node=4)
        small_phases = small_pat.phases(RngStreams(3))
        large_phases = large_pat.phases(RngStreams(3))
        r_small = CircuitNetwork(params).run(small_phases)
        r_large = CircuitNetwork(params).run(large_phases)
        assert efficiency(r_large, large_phases) > efficiency(r_small, small_phases)


class TestBatchWavefront:
    def test_default_run_uses_the_batch_wavefront(self, params):
        """An eligible run gives its SL passes the batch wavefront; a strict
        run keeps the sparse reference walk, with identical records."""
        from repro.sched.slarray import wavefront_batch, wavefront_sparse

        pattern = UniformRandomPattern(8, 128, messages_per_node=4)
        ref = CircuitNetwork(params, strict=True)
        r_ref = ref.run(pattern.phases(RngStreams(2)))
        assert ref.scheduler is not None
        assert ref.scheduler.wavefront is wavefront_sparse
        net = CircuitNetwork(params, strict=False)
        r_net = net.run(pattern.phases(RngStreams(2)))
        assert net.scheduler is not None
        assert net.scheduler.wavefront is wavefront_batch
        assert r_net.records == r_ref.records
        assert r_net.counters == r_ref.counters
