"""Unit tests for the TDM network model."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError, SchedulingError, SimulationError
from repro.faults.injector import FaultInjector
from repro.faults.model import FaultEvent, FaultKind
from repro.faults.schedule import FaultSchedule
from repro.networks.tdm import TdmNetwork
from repro.params import PAPER_PARAMS
from repro.predict.timeout import TimeoutPredictor
from repro.sim.clock import us
from repro.sim.rng import RngStreams
from repro.traffic.base import TrafficPhase, assign_seq
from repro.traffic.mesh import OrderedMeshPattern
from repro.traffic.scatter import ScatterPattern
from repro.traffic.synthetic import UniformRandomPattern
from repro.types import Connection, Message


@pytest.fixture
def params():
    return PAPER_PARAMS.with_overrides(n_ports=8)


def _run(net, pattern, seed=1):
    phases = pattern.phases(RngStreams(seed))
    return net.run(phases, pattern_name=pattern.name)


def _phase(messages, **kw):
    phase = TrafficPhase("test", messages, **kw)
    assign_seq([phase])
    return phase


class TestConstruction:
    def test_bad_mode(self, params):
        with pytest.raises(ConfigurationError):
            TdmNetwork(params, mode="magic")

    def test_bad_k(self, params):
        with pytest.raises(ConfigurationError):
            TdmNetwork(params, k=0)

    def test_hybrid_needs_valid_k_preload(self, params):
        with pytest.raises(ConfigurationError):
            TdmNetwork(params, k=3, mode="hybrid")
        with pytest.raises(ConfigurationError):
            TdmNetwork(params, k=3, mode="hybrid", k_preload=3)

    def test_preload_pins_all(self, params):
        with pytest.raises(ConfigurationError):
            TdmNetwork(params, k=4, mode="preload", k_preload=2)

    def test_bad_window(self, params):
        with pytest.raises(ConfigurationError):
            TdmNetwork(params, injection_window=0)

    def test_scheme_names(self, params):
        assert TdmNetwork(params, mode="dynamic").scheme == "tdm-dynamic"
        assert TdmNetwork(params, mode="preload").scheme == "tdm-preload"


class TestSingleMessage:
    def test_delivers_one_message(self, params):
        net = TdmNetwork(params, k=2, mode="dynamic")
        result = net.run([_phase([Message(src=0, dst=1, size=64)])])
        assert len(result.records) == 1
        rec = result.records[0]
        assert rec.size == 64
        assert rec.done_ps == result.makespan_ps

    def test_latency_includes_handshake_and_pipe(self, params):
        net = TdmNetwork(params, k=2, mode="dynamic")
        result = net.run([_phase([Message(src=0, dst=1, size=64)])])
        rec = result.records[0]
        # request wire + SL pass + grant + slot alignment + transfer + pipe
        assert rec.latency_ps >= params.request_wire_ps + params.pipe_latency_ps
        # but the whole round trip fits within a handful of slots
        assert rec.latency_ps < 10 * params.slot_ps

    def test_large_message_fragments_across_slots(self, params):
        net = TdmNetwork(params, k=2, mode="dynamic")
        result = net.run([_phase([Message(src=0, dst=1, size=400)])])
        # 400 bytes = 5 slots; with K=1 effective degree the slots are
        # back to back once established
        assert len(result.records) == 1
        assert result.counters["slot_transfers"] >= 5

    def test_byte_conservation_enforced(self, params):
        net = TdmNetwork(params, k=2, mode="dynamic")
        result = net.run([_phase([Message(src=0, dst=1, size=64)])])
        assert net.ledger.total_delivered == 64


class TestDynamicScheduling:
    def test_multiple_destinations_use_multiple_slots(self, params):
        msgs = [Message(src=0, dst=v, size=800) for v in (1, 2, 3)]
        net = TdmNetwork(params, k=4, mode="dynamic")
        result = net.run([_phase(msgs)])
        assert len(result.records) == 3
        assert result.counters["establishes"] >= 3

    def test_contention_resolved(self, params):
        # all sources target output 1
        msgs = [Message(src=u, dst=1, size=64) for u in range(2, 6)]
        net = TdmNetwork(params, k=4, mode="dynamic")
        result = net.run([_phase(msgs)])
        assert len(result.records) == 4

    def test_releases_happen(self, params):
        pattern = UniformRandomPattern(8, 64, messages_per_node=4)
        net = TdmNetwork(params, k=2, mode="dynamic")
        result = _run(net, pattern)
        assert result.counters["releases"] > 0

    def test_full_pattern_delivery(self, params):
        pattern = UniformRandomPattern(8, 96, messages_per_node=6)
        net = TdmNetwork(params, k=4, mode="dynamic")
        result = _run(net, pattern)
        assert len(result.records) == 8 * 6


class TestPreload:
    def test_mesh_preload_runs_without_dynamic_scheduling(self, params):
        pattern = OrderedMeshPattern(8, 64, rounds=2)
        net = TdmNetwork(params, k=4, mode="preload")
        result = _run(net, pattern)
        assert len(result.records) == 8 * 4 * 2
        assert result.counters.get("establishes", 0) == 0  # all preloaded

    def test_preload_rejects_uncovered_traffic(self, params):
        phase = _phase(
            [Message(src=0, dst=1, size=64)],
            static_conns={Connection(2, 3)},
            preload_configs=None,
        )
        net = TdmNetwork(params, k=2, mode="preload")
        with pytest.raises(SchedulingError):
            net.run([phase])

    def test_scatter_preload_advances_batches(self, params):
        pattern = ScatterPattern(8, 64)
        net = TdmNetwork(params, k=2, mode="preload")
        result = _run(net, pattern)
        assert len(result.records) == 7
        assert result.counters["preload_batches"] == 4  # ceil(7 / 2)

    def test_preload_beats_dynamic_on_mesh(self, params):
        pattern = lambda: OrderedMeshPattern(8, 64, rounds=4)
        dyn = _run(TdmNetwork(params, k=4, mode="dynamic", injection_window=4), pattern())
        pre = _run(TdmNetwork(params, k=4, mode="preload", injection_window=4), pattern())
        assert pre.makespan_ps < dyn.makespan_ps


class TestHybrid:
    def test_hybrid_serves_uncovered_dynamically(self, params):
        phase = _phase(
            [Message(src=0, dst=1, size=64), Message(src=2, dst=3, size=64)],
            static_conns={Connection(0, 1)},
        )
        net = TdmNetwork(params, k=3, mode="hybrid", k_preload=1)
        result = net.run([phase])
        assert len(result.records) == 2

    def test_hybrid_counts_preloads(self, params):
        phase = _phase(
            [Message(src=0, dst=1, size=64)],
            static_conns={Connection(0, 1)},
        )
        net = TdmNetwork(params, k=3, mode="hybrid", k_preload=1)
        result = net.run([phase])
        assert result.counters["preloads"] >= 1


class TestInjectionWindow:
    def test_windowed_run_delivers_everything(self, params):
        pattern = UniformRandomPattern(8, 64, messages_per_node=6)
        net = TdmNetwork(params, k=4, mode="dynamic", injection_window=2)
        result = _run(net, pattern)
        assert len(result.records) == 48

    def test_window_one_serialises_sources(self, params):
        msgs = [Message(src=0, dst=v, size=64) for v in (1, 2, 3, 4)]
        wide = TdmNetwork(params, k=4, mode="dynamic")
        narrow = TdmNetwork(params, k=4, mode="dynamic", injection_window=1)
        r_wide = wide.run([_phase(msgs)])
        msgs2 = [Message(src=0, dst=v, size=64) for v in (1, 2, 3, 4)]
        r_narrow = narrow.run([_phase(msgs2)])
        assert r_narrow.makespan_ps > r_wide.makespan_ps

    def test_windowed_preload_scatter(self, params):
        pattern = ScatterPattern(8, 64)
        net = TdmNetwork(params, k=2, mode="preload", injection_window=2)
        result = _run(net, pattern)
        assert len(result.records) == 7

    @pytest.mark.parametrize("window", [None, 4])
    def test_message_to_port_n_is_rejected(self, params, window):
        """Both injection paths run the same port-range check and raise
        the same error for a message addressed past the last port."""
        net = TdmNetwork(params, k=2, mode="dynamic", injection_window=window)
        phase = _phase([Message(0, params.n_ports, 64)])
        with pytest.raises(SimulationError, match="does not fit a 8-port system"):
            net.run([phase])

    @pytest.mark.parametrize("window", [None, 4])
    def test_windowed_injection_drops_traffic_to_a_dead_port(self, params, window):
        """A message injected after its destination died is dropped at
        admission, with or without the injection window; a windowed run
        that queued it instead would spin until its wall-clock budget."""
        faults = FaultInjector(
            FaultSchedule((FaultEvent(time_ps=1, kind=FaultKind.LINK_FAIL, port=3),))
        )
        net = TdmNetwork(
            params,
            k=2,
            mode="dynamic",
            injection_window=window,
            faults=faults,
            max_wall_s=2.0,
        )
        first = TrafficPhase("first", [Message(0, 1, 64), Message(2, 5, 64)])
        second = TrafficPhase("second", [Message(0, 3, 64)])
        assign_seq([first, second])
        result = net.run([first, second])
        assert [(r.src, r.dst) for r in result.records] == [(0, 1), (2, 5)]
        assert [(d.src, d.dst, d.reason) for d in result.drops] == [(0, 3, "dead-link")]


class TestPredictorIntegration:
    def test_timeout_predictor_latches(self, params):
        # two bursts to the same destination separated by a gap shorter
        # than the timeout: the second burst reuses the cached connection
        msgs = [
            Message(src=0, dst=1, size=64, inject_ps=0),
            Message(src=0, dst=1, size=64, inject_ps=us(1)),
        ]
        net = TdmNetwork(
            params, k=2, mode="dynamic", predictor=TimeoutPredictor(us(5))
        )
        result = net.run([_phase(msgs)])
        assert len(result.records) == 2
        assert result.counters["establishes"] == 1  # reused, not re-established
        assert result.counters["predictor_holds"] >= 1

    def test_timeout_predictor_evicts_after_gap(self, params):
        msgs = [
            Message(src=0, dst=1, size=64, inject_ps=0),
            Message(src=0, dst=1, size=64, inject_ps=us(20)),
        ]
        net = TdmNetwork(
            params, k=2, mode="dynamic", predictor=TimeoutPredictor(us(2))
        )
        result = net.run([_phase(msgs)])
        assert result.counters["establishes"] == 2  # evicted in between
        assert result.counters["predictor_evictions"] >= 1


class TestFlushOnPhase:
    def test_flush_between_phases(self, params):
        a = _phase([Message(src=0, dst=1, size=64)])
        b = TrafficPhase("b", [Message(src=2, dst=3, size=64)])
        b.messages[0].seq = 99
        net = TdmNetwork(params, k=2, mode="dynamic", flush_on_phase=True)
        result = net.run([a, b])
        assert result.counters["flushes"] == 1
        assert len(result.records) == 2


class TestCounters:
    def test_counters_present(self, params):
        net = TdmNetwork(params, k=2, mode="dynamic")
        result = net.run([_phase([Message(src=0, dst=1, size=64)])])
        for key in ("events", "tdm_advances", "slot_transfers", "passes"):
            assert key in result.counters


class TestExtensionsEndToEnd:
    """The scheduler extensions driven through full network runs."""

    def test_multi_sl_units_network(self, params):
        pattern = UniformRandomPattern(8, 64, messages_per_node=6)
        r1 = _run(TdmNetwork(params, k=4, mode="dynamic", n_sl_units=1), pattern)
        pattern2 = UniformRandomPattern(8, 64, messages_per_node=6)
        r4 = _run(TdmNetwork(params, k=4, mode="dynamic", n_sl_units=4), pattern2)
        assert len(r4.records) == len(r1.records)
        # more units never hurt completion
        assert r4.makespan_ps <= r1.makespan_ps * 1.1

    def test_boost_policy_network(self, params):
        msgs = [Message(src=0, dst=1, size=20_000)]
        phase = _phase(msgs)
        net = TdmNetwork(params, k=4, mode="dynamic", multislot_threshold_bytes=512)
        result = net.run([phase])
        assert len(result.records) == 1
        # the elephant was present in two slots at some point
        assert net.scheduler.counters["establishes"] >= 2

    def test_prefetcher_network(self, params):
        from repro.predict.markov import MarkovPrefetcher
        from repro.sim.clock import us

        pattern = OrderedMeshPattern(8, 64, rounds=6)
        prefetcher = MarkovPrefetcher(8, hold_ps=us(2))
        net = TdmNetwork(
            params, k=4, mode="dynamic", injection_window=1, prefetcher=prefetcher
        )
        result = _run(net, pattern)
        assert len(result.records) == 8 * 4 * 6
        assert result.counters["prefetch_hits"] > 0
        # the 4x2 torus repeats its E/W neighbour, which blunts a
        # first-order predictor; it should still be right far more often
        # than wrong
        assert prefetcher.accuracy() > 0.6
        assert result.counters["prefetch_hits"] > result.counters["prefetch_misses"]

    def test_fabric_constraint_network(self, params):
        from repro.topo import binary_fat_tree

        pattern = UniformRandomPattern(8, 64, messages_per_node=4)
        net = TdmNetwork(
            params,
            k=4,
            mode="dynamic",
            injection_window=4,
            fabric_constraint=binary_fat_tree(8, taper=8),
        )
        result = _run(net, pattern)
        assert len(result.records) == 32  # everything still delivered

    def test_constraint_and_multiunit_exclusive(self, params):
        from repro.topo import binary_fat_tree

        with pytest.raises(ConfigurationError):
            TdmNetwork(
                params, k=4, n_sl_units=2, fabric_constraint=binary_fat_tree(8)
            )

    def test_guard_band_network(self):
        p = PAPER_PARAMS.with_overrides(n_ports=8, guard_band_frac=0.05)
        assert p.slot_bytes == 76
        net = TdmNetwork(p, k=2, mode="dynamic")
        result = net.run([_phase([Message(src=0, dst=1, size=760)])])
        # 760 bytes at 76 per slot: exactly 10 slot transfers
        assert result.counters["slot_transfers"] == 10

    def test_tracer_records_deliveries(self, params):
        from repro.sim.trace import Tracer

        tracer = Tracer()
        net = TdmNetwork(params, k=2, mode="dynamic", tracer=tracer)
        net.run([_phase([Message(src=0, dst=1, size=64)])])
        assert any(ev.kind == "deliver" for ev in tracer.events())
