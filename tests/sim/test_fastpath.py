"""Byte-identity and eligibility tests for the slot-synchronous shortcuts.

The contract under test: a default run, which arms the quiescent windows,
the inert-pass shortcut and the batch wavefront whenever it is eligible,
produces a ``RunResult`` byte-identical to its strict twin, which runs
every tick through the heap — makespan, every message record, phase
accounting, counters (including the executed-event count), drops.  An
irregular run (strict, faults, tracing, exotic schedulers) never opens a
window: it runs tick by tick, transferring through the same vectorised
per-slot transfer as every other run.
"""

from __future__ import annotations

import pytest

from repro.sim.clock import ns, us
from repro.faults.injector import FaultInjector
from repro.faults.schedule import FaultEvent, FaultKind, FaultSchedule
from repro.networks.base import STRICT_ENV_VAR
from repro.networks.registry import RunSpec, build_network
from repro.networks.tdm import TdmNetwork
from repro.params import PAPER_PARAMS
from repro.predict import TimeoutPredictor
from repro.sched.priority import RoundRobinPriority
from repro.sched.slarray import wavefront_batch, wavefront_sparse
from repro.sim.fastpath import fastpath_ineligible
from repro.sim.rng import RngStreams
from repro.sim.trace import Tracer
from repro.topo import binary_fat_tree
from repro.traffic.mesh import OrderedMeshPattern
from repro.traffic.scatter import ScatterPattern
from repro.traffic.synthetic import UniformRandomPattern

P8 = PAPER_PARAMS.with_overrides(n_ports=8)
P16 = PAPER_PARAMS.with_overrides(n_ports=16)


def fingerprint(result):
    """Every observable of a run, as one comparable value."""
    return {
        "makespan": result.makespan_ps,
        "total_bytes": result.total_bytes,
        "records": [
            (r.src, r.dst, r.size, r.inject_ps, r.start_ps, r.done_ps, r.seq)
            for r in result.records
        ],
        "phases": [
            (p.name, p.start_ps, p.end_ps, p.bytes, p.messages)
            for p in result.phases
        ],
        "counters": result.counters,
        "drops": [(d.src, d.dst, d.seq) for d in result.drops],
        "recovery_ps": result.recovery_ps,
    }


def assert_windows_never_open(net):
    """No window opened or was even attempted, and no SL pass was elided."""
    assert not any(net._fastpath.stats().values())


def run_both(make_net, pattern, seed=3):
    """Run ``pattern`` through a strict twin and a default one.

    ``make_net(strict)`` builds either; returns the strict result, the
    default result and the default network (whose windows may open).
    """
    ref = make_net(True)
    net = make_net(False)
    result_ref = ref.run(pattern.phases(RngStreams(seed)), pattern_name=pattern.name)
    result = net.run(pattern.phases(RngStreams(seed)), pattern_name=pattern.name)
    return result_ref, result, net


class TestByteIdentity:
    def test_scatter_long_messages_windows_open(self):
        """The flagship case: long streams, quiescent windows do the work."""
        pattern = ScatterPattern(8, size_bytes=2048)
        rs, rd, net = run_both(
            lambda f: TdmNetwork(P8, k=4, injection_window=4, strict=f), pattern
        )
        assert fingerprint(rs) == fingerprint(rd)
        assert net._fastpath is not None
        stats = net._fastpath.stats()
        assert stats["windows_opened"] > 0
        assert stats["quiet_slot_ticks"] > 0

    def test_scatter_short_messages_no_windows(self):
        """Messages shorter than the window minimum: still identical."""
        pattern = ScatterPattern(8, size_bytes=64)
        rs, rd, _ = run_both(
            lambda f: TdmNetwork(P8, k=4, injection_window=4, strict=f), pattern
        )
        assert fingerprint(rs) == fingerprint(rd)

    def test_uniform_random(self):
        pattern = UniformRandomPattern(16, size_bytes=512, messages_per_node=6)
        rs, rd, _ = run_both(
            lambda f: TdmNetwork(P16, k=4, injection_window=4, strict=f), pattern
        )
        assert fingerprint(rs) == fingerprint(rd)

    def test_preload_mesh(self):
        """Preloaded slots plus batch draining (the batch break rule)."""
        pattern = OrderedMeshPattern(8, size_bytes=1024)
        rs, rd, _ = run_both(
            lambda f: TdmNetwork(P8, k=4, mode="preload", injection_window=4, strict=f),
            pattern,
        )
        assert fingerprint(rs) == fingerprint(rd)

    def test_hybrid_mesh(self):
        pattern = OrderedMeshPattern(8, size_bytes=1024)
        rs, rd, _ = run_both(
            lambda f: TdmNetwork(
                P8, k=4, mode="hybrid", k_preload=2, injection_window=4, strict=f
            ),
            pattern,
        )
        assert fingerprint(rs) == fingerprint(rd)

    def test_no_injection_window(self):
        pattern = ScatterPattern(8, size_bytes=768)
        rs, rd, _ = run_both(lambda f: TdmNetwork(P8, k=4, strict=f), pattern)
        assert fingerprint(rs) == fingerprint(rd)

    def test_round_robin_rotation(self):
        """Bulk SL passes must advance the rotation exactly like the loop."""
        pattern = ScatterPattern(8, size_bytes=2048)
        rs, rd, _ = run_both(
            lambda f: TdmNetwork(
                P8, k=4, rotation=RoundRobinPriority(8), injection_window=4, strict=f
            ),
            pattern,
        )
        assert fingerprint(rs) == fingerprint(rd)

    def test_predictor_disables_windows_not_identity(self):
        """A real predictor rules out windows but keeps the vector transfer."""
        pattern = UniformRandomPattern(8, size_bytes=512, messages_per_node=4)
        rs, rd, net = run_both(
            lambda f: TdmNetwork(
                P8, k=4, predictor=TimeoutPredictor(timeout_ps=us(1)), strict=f
            ),
            pattern,
        )
        assert fingerprint(rs) == fingerprint(rd)
        assert net._fastpath is not None
        assert net._fastpath.stats()["windows_opened"] == 0

    def test_circuit_scheme_batch_wavefront(self):
        """Circuit switching has no slot clock; an eligible run swaps only
        the wavefront evaluator and must stay identical to the strict one."""
        from repro.networks.circuit import CircuitNetwork

        pattern = UniformRandomPattern(8, size_bytes=512, messages_per_node=4)
        rs, rd, net = run_both(lambda f: CircuitNetwork(P8, strict=f), pattern)
        assert fingerprint(rs) == fingerprint(rd)
        assert net.scheduler.wavefront is wavefront_batch

    def test_fault_campaign_falls_back_and_stays_identical(self):
        """With faults active both twins run tick by tick and agree."""
        schedule = FaultSchedule(
            events=(FaultEvent(time_ps=ns(500), kind=FaultKind.LINK_FAIL, port=2),)
        )
        pattern = UniformRandomPattern(8, size_bytes=512, messages_per_node=4)
        rs, rd, net = run_both(
            lambda f: TdmNetwork(P8, k=4, faults=FaultInjector(schedule), strict=f),
            pattern,
        )
        assert_windows_never_open(net)
        assert fingerprint(rs) == fingerprint(rd)

    @pytest.mark.parametrize(
        "scheme", ["dynamic-tdm", "preload", "hybrid", "solstice-tdm", "circuit"]
    )
    def test_registered_scheme_matches_its_strict_twin(self, scheme):
        """Every registered single-crossbar scheme the shortcuts serve."""
        k_preload = 2 if scheme == "hybrid" else None
        pattern = OrderedMeshPattern(8, size_bytes=1024)
        rs, rd, _ = run_both(
            lambda f: build_network(
                RunSpec(scheme, P8, k=4, k_preload=k_preload, strict=f)
            ),
            pattern,
        )
        assert rs == rd


class TestExperimentCells:
    """The CI contract at experiment granularity: whole sweep cells (which
    resolve ``strict`` from ``REPRO_STRICT`` via the scheme registry) must
    produce equal points with and without strict mode."""

    def test_figure4_cell_both_modes(self, monkeypatch):
        from repro.experiments.figure4 import Figure4Cell, run_figure4_cell

        cell = Figure4Cell(
            pattern="scatter",
            scheme="dynamic-tdm",
            size_bytes=1024,
            params=P16,
            k=4,
            mesh_rounds=1,
            nn_rounds=2,
            seed=7,
        )
        monkeypatch.setenv(STRICT_ENV_VAR, "1")
        ref = run_figure4_cell(cell)
        monkeypatch.delenv(STRICT_ENV_VAR)
        assert run_figure4_cell(cell) == ref

    def test_figure5_cell_both_modes(self, monkeypatch):
        from repro.experiments.figure5 import Figure5Cell, run_figure5_cell

        cell = Figure5Cell(
            k_preload=2,
            determinism=0.75,
            params=P16,
            k_total=4,
            size_bytes=512,
            messages_per_node=4,
            n_static=2,
            injection_window=4,
            seed=7,
        )
        monkeypatch.setenv(STRICT_ENV_VAR, "1")
        ref = run_figure5_cell(cell)
        monkeypatch.delenv(STRICT_ENV_VAR)
        assert run_figure5_cell(cell) == ref

    def test_fault_cell_both_modes(self, monkeypatch):
        from repro.experiments.faults import FaultCell, run_fault_cell

        cell = FaultCell(
            scheme="dynamic-tdm",
            rate_per_us=1.0,
            horizon_ps=10**8,
            params=P16,
            size_bytes=512,
            messages_per_node=4,
            n_static=2,
            k=4,
            injection_window=4,
            seed=7,
            max_wall_s=None,
        )
        monkeypatch.setenv(STRICT_ENV_VAR, "1")
        ref = run_fault_cell(cell)
        monkeypatch.delenv(STRICT_ENV_VAR)
        assert run_fault_cell(cell) == ref

    def test_connection_in_two_slots_bounds_the_window(self, monkeypatch):
        """A hybrid cell where a connection holds a pinned and a dynamic
        slot at once: its union of turns, not either slot alone, must
        bound the window."""
        from repro.experiments.figure5 import Figure5Cell, run_figure5_cell
        from repro.sim.fastpath import FastPath

        cell = Figure5Cell(
            k_preload=1,
            determinism=0.5,
            params=P16,
            k_total=4,
            size_bytes=512,
            messages_per_node=4,
            n_static=2,
            injection_window=4,
            seed=3,
        )
        monkeypatch.setenv(STRICT_ENV_VAR, "1")
        ref = run_figure5_cell(cell)
        monkeypatch.delenv(STRICT_ENV_VAR)
        seen = []
        original = FastPath._multi_slot_break

        def spy(self, served, multi, p):
            seen.append(multi)
            return original(self, served, multi, p)

        monkeypatch.setattr(FastPath, "_multi_slot_break", spy)
        assert run_figure5_cell(cell) == ref
        assert seen


class TestEligibility:
    def test_eligible_plain_run(self):
        net = TdmNetwork(P8, k=4)
        net.run(ScatterPattern(8, size_bytes=256).phases(RngStreams(1)))
        assert fastpath_ineligible(net) is None
        assert net._fastpath.armed
        assert net.scheduler.wavefront is wavefront_batch

    def test_strict_run_opens_no_window(self):
        """Strict mode is the tick-by-tick reference: nothing is armed (on
        a run whose default twin opens windows); the transfer is still
        the vectorised one every run uses."""
        net = TdmNetwork(P8, k=4, injection_window=4, strict=True)
        net.run(ScatterPattern(8, size_bytes=2048).phases(RngStreams(3)))
        assert "strict" in fastpath_ineligible(net)
        assert not net._fastpath.armed
        assert net.scheduler.wavefront is wavefront_sparse
        assert_windows_never_open(net)

    def test_tracer_ineligible(self):
        net = TdmNetwork(P8, k=4, tracer=Tracer(enabled=True))
        assert fastpath_ineligible(net) is not None
        net.run(ScatterPattern(8, size_bytes=256).phases(RngStreams(1)))
        assert_windows_never_open(net)

    def test_faults_ineligible(self):
        schedule = FaultSchedule(
            events=(FaultEvent(time_ps=ns(500), kind=FaultKind.LINK_FAIL, port=0),)
        )
        net = TdmNetwork(P8, k=4, faults=FaultInjector(schedule))
        net.run(ScatterPattern(8, size_bytes=256).phases(RngStreams(1)))
        assert fastpath_ineligible(net) is not None
        assert_windows_never_open(net)

    def test_multi_unit_scheduler_ineligible(self):
        net = TdmNetwork(P8, k=4, n_sl_units=2)
        net.run(ScatterPattern(8, size_bytes=256).phases(RngStreams(1)))
        assert_windows_never_open(net)

    def test_constrained_scheduler_ineligible(self):
        net = TdmNetwork(P8, k=4, fabric_constraint=binary_fat_tree(8))
        net.run(ScatterPattern(8, size_bytes=256).phases(RngStreams(1)))
        assert_windows_never_open(net)

    def test_event_count_credited_exactly(self):
        """Skipped clock ticks are credited: the events counter matches."""
        pattern = ScatterPattern(8, size_bytes=2048)
        rs, rd, net = run_both(
            lambda f: TdmNetwork(P8, k=4, injection_window=4, strict=f), pattern
        )
        assert rs.counters["events"] == rd.counters["events"]
        stats = net._fastpath.stats()
        # the credit is real: more ticks were applied than heap events run
        assert stats["quiet_slot_ticks"] + stats["quiet_sl_ticks"] > 0
