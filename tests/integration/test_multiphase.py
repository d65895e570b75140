"""Multi-phase integration tests (phase barriers, preload reprogramming).

These pin the cross-phase machinery: batch programs recompiled per phase,
stale batch-load directives from an earlier phase (a fixed bug — they used
to fire into the next phase's shorter program), compiler flushes, and
barrier timing across all schemes.
"""

from __future__ import annotations

import pytest

from repro.networks.circuit import CircuitNetwork
from repro.networks.tdm import TdmNetwork
from repro.networks.wormhole import WormholeNetwork
from repro.params import PAPER_PARAMS
from repro.predict.timeout import TimeoutPredictor
from repro.sim.clock import us
from repro.sim.rng import RngStreams
from repro.traffic.base import TrafficPhase, assign_seq
from repro.traffic.nas import NasLikeTrace
from repro.traffic.twophase import TwoPhasePattern
from repro.types import Connection, Message

PARAMS = PAPER_PARAMS.with_overrides(n_ports=16)


def _phases(*message_lists, static=None, preload=None):
    phases = []
    for i, msgs in enumerate(message_lists):
        phases.append(
            TrafficPhase(
                f"p{i}",
                msgs,
                static_conns=(static[i] if static else set()),
                preload_configs=(preload[i] if preload else None),
            )
        )
    assign_seq(phases)
    return phases


class TestPhaseBarriers:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: WormholeNetwork(PARAMS),
            lambda: CircuitNetwork(PARAMS),
            lambda: TdmNetwork(PARAMS, k=3, mode="dynamic"),
        ],
        ids=["wormhole", "circuit", "tdm"],
    )
    def test_phase_two_starts_after_phase_one(self, factory):
        phases = _phases(
            [Message(src=0, dst=1, size=512)],
            [Message(src=2, dst=3, size=64)],
        )
        result = factory().run(phases)
        assert result.phases[1].start_ps >= result.phases[0].end_ps
        by_pair = {(r.src, r.dst): r for r in result.records}
        assert by_pair[(2, 3)].start_ps >= by_pair[(0, 1)].done_ps

    def test_phase_results_cover_run(self):
        pattern = TwoPhasePattern(16, 64, nn_rounds=2)
        result = TdmNetwork(PARAMS, k=4, mode="dynamic").run(
            pattern.phases(RngStreams(0))
        )
        assert len(result.phases) == 2
        assert result.phases[-1].end_ps == result.makespan_ps
        assert sum(p.messages for p in result.phases) == len(result.records)
        for p in result.phases:
            assert p.duration_ps > 0


class TestPreloadAcrossPhases:
    def test_stale_batch_directive_regression(self):
        """Phase 0 compiles a many-batch program; phase 1 a single-batch
        one.  A batch-load directive scheduled near the end of phase 0
        must not fire into phase 1's shorter program (used to raise
        IndexError)."""
        from repro.fabric.config import ConfigMatrix

        n = PARAMS.n_ports
        # phase 0: node 0 scatters to many destinations -> many batches
        p0_msgs = [Message(src=0, dst=v, size=64) for v in range(1, n)]
        p0_preload = [
            ConfigMatrix.from_pairs(n, [(0, v)]) for v in range(1, n)
        ]
        # phase 1: a single ring permutation -> one batch
        p1_msgs = [Message(src=u, dst=(u + 1) % n, size=64) for u in range(n)]
        p1_preload = [
            ConfigMatrix.from_pairs(n, [(u, (u + 1) % n) for u in range(n)])
        ]
        phases = _phases(
            p0_msgs,
            p1_msgs,
            static={0: {Connection(0, v) for v in range(1, n)},
                    1: {Connection(u, (u + 1) % n) for u in range(n)}},
            preload={0: p0_preload, 1: p1_preload},
        )
        net = TdmNetwork(PARAMS, k=3, mode="hybrid", k_preload=1)
        result = net.run(phases)
        assert len(result.records) == len(p0_msgs) + len(p1_msgs)

    def test_pure_preload_multiphase(self):
        pattern = TwoPhasePattern(16, 64, nn_rounds=2)
        net = TdmNetwork(PARAMS, k=4, mode="preload", injection_window=4)
        result = net.run(pattern.phases(RngStreams(0)))
        assert len(result.records) == 16 * 15 + 16 * 4 * 2
        assert result.counters.get("establishes", 0) == 0

    def test_nas_trace_hybrid_with_flush(self):
        trace = NasLikeTrace(16, 64, n_phases=4, rounds_per_phase=2)
        net = TdmNetwork(
            PARAMS, k=4, mode="hybrid", k_preload=2, flush_on_phase=True
        )
        phases = trace.phases(RngStreams(9))
        result = net.run(phases, pattern_name=trace.name)
        assert len(result.records) == sum(len(p.messages) for p in phases)
        assert result.counters["flushes"] == len(phases) - 1


class TestPredictorsAcrossPhases:
    def test_flush_clears_predictor_state(self):
        predictor = TimeoutPredictor(us(50))
        phases = _phases(
            [Message(src=0, dst=1, size=64)],
            [Message(src=2, dst=3, size=64)],
        )
        net = TdmNetwork(
            PARAMS, k=2, mode="dynamic", predictor=predictor, flush_on_phase=True
        )
        result = net.run(phases)
        assert len(result.records) == 2
        assert result.counters["flushes"] == 1
        # the phase boundary dropped (0, 1)'s latch long before its
        # time-out; only phase 1's connection is still held
        assert predictor.expired(us(10_000)) == [Connection(2, 3)]

    def test_latched_connection_survives_phase_gap(self):
        """A timeout-latched connection from phase 0 is reused by phase 1
        when the gap is shorter than the timeout."""
        phases = _phases(
            [Message(src=0, dst=1, size=64)],
            [Message(src=0, dst=1, size=64)],
        )
        net = TdmNetwork(
            PARAMS, k=2, mode="dynamic", predictor=TimeoutPredictor(us(50))
        )
        result = net.run(phases)
        assert len(result.records) == 2
        assert result.counters["establishes"] == 1


class TestProgramlessPhases:
    def test_hybrid_phase_without_static_info_unpins(self):
        """A phase with no static connections hands pinned registers back
        to the dynamic scheduler instead of leaking the previous phase's
        configurations."""
        from repro.fabric.config import ConfigMatrix

        n = PARAMS.n_ports
        p0 = _phases(
            [Message(src=0, dst=1, size=64)],
            static={0: {Connection(0, 1)}},
        )[0]
        p1 = TrafficPhase("no-static", [Message(src=2, dst=3, size=64)])
        phases = [p0, p1]
        assign_seq(phases)
        net = TdmNetwork(PARAMS, k=3, mode="hybrid", k_preload=1)
        result = net.run(phases)
        assert len(result.records) == 2
        assert net.scheduler.registers.pinned == set()

    def test_pure_preload_rejects_staticless_phase(self):
        from repro.errors import SchedulingError

        p0 = TrafficPhase("blind", [Message(src=0, dst=1, size=64)])
        assign_seq([p0])
        net = TdmNetwork(PARAMS, k=2, mode="preload")
        with pytest.raises(SchedulingError):
            net.run([p0])
