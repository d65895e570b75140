"""Byte-identity and fallback tests for the slot-synchronous fast path.

The contract under test: with ``fast=True`` a run produces a
``RunResult`` byte-identical to the event-driven path — makespan, every
message record, phase accounting, counters (including the executed-event
count), drops.  An irregular run (faults, tracing, exotic schedulers)
never opens a window: it runs tick by tick, transferring through the same
vectorised per-slot transfer as every other run.
"""

from __future__ import annotations

from repro.sim.clock import ns, us
from repro.faults.injector import FaultInjector
from repro.faults.schedule import FaultEvent, FaultKind, FaultSchedule
from repro.networks.tdm import TdmNetwork
from repro.params import PAPER_PARAMS
from repro.predict import TimeoutPredictor
from repro.sched.priority import RoundRobinPriority
from repro.sched.slarray import wavefront_batch, wavefront_sparse
from repro.sim.fastpath import FAST_ENV_VAR, fast_from_env, fastpath_ineligible
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
    """Run ``pattern`` through an event-mode and a fast-mode twin."""
    slow = make_net(False)
    fast = make_net(True)
    result_slow = slow.run(pattern.phases(RngStreams(seed)), pattern_name=pattern.name)
    result_fast = fast.run(pattern.phases(RngStreams(seed)), pattern_name=pattern.name)
    return result_slow, result_fast, fast


class TestByteIdentity:
    def test_scatter_long_messages_windows_open(self):
        """The flagship case: long streams, quiescent windows do the work."""
        pattern = ScatterPattern(8, size_bytes=2048)
        rs, rf, fast = run_both(
            lambda f: TdmNetwork(P8, k=4, injection_window=4, fast=f), pattern
        )
        assert fingerprint(rs) == fingerprint(rf)
        assert fast._fastpath is not None
        stats = fast._fastpath.stats()
        assert stats["windows_opened"] > 0
        assert stats["quiet_slot_ticks"] > 0

    def test_scatter_short_messages_no_windows(self):
        """Messages shorter than the window minimum: still identical."""
        pattern = ScatterPattern(8, size_bytes=64)
        rs, rf, _ = run_both(
            lambda f: TdmNetwork(P8, k=4, injection_window=4, fast=f), pattern
        )
        assert fingerprint(rs) == fingerprint(rf)

    def test_uniform_random(self):
        pattern = UniformRandomPattern(16, size_bytes=512, messages_per_node=6)
        rs, rf, _ = run_both(
            lambda f: TdmNetwork(P16, k=4, injection_window=4, fast=f), pattern
        )
        assert fingerprint(rs) == fingerprint(rf)

    def test_preload_mesh(self):
        """Preloaded slots plus batch draining (the batch break rule)."""
        pattern = OrderedMeshPattern(8, size_bytes=1024)
        rs, rf, _ = run_both(
            lambda f: TdmNetwork(P8, k=4, mode="preload", injection_window=4, fast=f),
            pattern,
        )
        assert fingerprint(rs) == fingerprint(rf)

    def test_hybrid_mesh(self):
        pattern = OrderedMeshPattern(8, size_bytes=1024)
        rs, rf, _ = run_both(
            lambda f: TdmNetwork(
                P8, k=4, mode="hybrid", k_preload=2, injection_window=4, fast=f
            ),
            pattern,
        )
        assert fingerprint(rs) == fingerprint(rf)

    def test_no_injection_window(self):
        pattern = ScatterPattern(8, size_bytes=768)
        rs, rf, _ = run_both(lambda f: TdmNetwork(P8, k=4, fast=f), pattern)
        assert fingerprint(rs) == fingerprint(rf)

    def test_round_robin_rotation(self):
        """Bulk SL passes must advance the rotation exactly like the loop."""
        pattern = ScatterPattern(8, size_bytes=2048)
        rs, rf, _ = run_both(
            lambda f: TdmNetwork(
                P8, k=4, rotation=RoundRobinPriority(8), injection_window=4, fast=f
            ),
            pattern,
        )
        assert fingerprint(rs) == fingerprint(rf)

    def test_predictor_disables_windows_not_identity(self):
        """A real predictor rules out windows but keeps the vector transfer."""
        pattern = UniformRandomPattern(8, size_bytes=512, messages_per_node=4)
        rs, rf, fast = run_both(
            lambda f: TdmNetwork(
                P8, k=4, predictor=TimeoutPredictor(timeout_ps=us(1)), fast=f
            ),
            pattern,
        )
        assert fingerprint(rs) == fingerprint(rf)
        assert fast._fastpath is not None
        assert fast._fastpath.stats()["windows_opened"] == 0

    def test_circuit_scheme_batch_wavefront(self):
        """Circuit switching has no slot clock; fast mode swaps only the
        wavefront evaluator and must stay identical."""
        from repro.networks.circuit import CircuitNetwork

        pattern = UniformRandomPattern(8, size_bytes=512, messages_per_node=4)
        rs, rf, _ = run_both(lambda f: CircuitNetwork(P8, fast=f), pattern)
        assert fingerprint(rs) == fingerprint(rf)

    def test_fault_campaign_falls_back_and_stays_identical(self):
        """With faults active both modes run tick by tick; fast=True must
        be a no-op rather than an error."""
        schedule = FaultSchedule(
            events=(FaultEvent(time_ps=ns(500), kind=FaultKind.LINK_FAIL, port=2),)
        )
        pattern = UniformRandomPattern(8, size_bytes=512, messages_per_node=4)
        rs, rf, fast = run_both(
            lambda f: TdmNetwork(P8, k=4, faults=FaultInjector(schedule), fast=f),
            pattern,
        )
        assert_windows_never_open(fast)
        assert fingerprint(rs) == fingerprint(rf)


class TestExperimentCells:
    """The CI contract at experiment granularity: whole sweep cells (which
    resolve ``fast`` from ``REPRO_FAST`` via the scheme registry) must
    produce equal points in both modes."""

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
        monkeypatch.setenv(FAST_ENV_VAR, "0")
        slow = run_figure4_cell(cell)
        monkeypatch.setenv(FAST_ENV_VAR, "1")
        fast = run_figure4_cell(cell)
        assert slow == fast

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
        monkeypatch.setenv(FAST_ENV_VAR, "0")
        slow = run_figure5_cell(cell)
        monkeypatch.setenv(FAST_ENV_VAR, "1")
        fast = run_figure5_cell(cell)
        assert slow == fast

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
        monkeypatch.setenv(FAST_ENV_VAR, "0")
        slow = run_fault_cell(cell)
        monkeypatch.setenv(FAST_ENV_VAR, "1")
        fast = run_fault_cell(cell)
        assert slow == fast


class TestEligibility:
    def test_eligible_plain_run(self):
        net = TdmNetwork(P8, k=4, fast=True)
        net.run(ScatterPattern(8, size_bytes=256).phases(RngStreams(1)))
        assert fastpath_ineligible(net) is None
        assert net._fastpath.armed
        assert net.scheduler.wavefront is wavefront_batch

    def test_event_mode_keeps_sparse_wavefront(self):
        """Without fast=True nothing is armed; the transfer is still the
        vectorised one every run uses."""
        net = TdmNetwork(P8, k=4, fast=False)
        net.run(ScatterPattern(8, size_bytes=256).phases(RngStreams(1)))
        assert not net._fastpath.armed
        assert net.scheduler.wavefront is wavefront_sparse
        assert_windows_never_open(net)

    def test_tracer_ineligible(self):
        net = TdmNetwork(P8, k=4, tracer=Tracer(enabled=True), fast=True)
        assert fastpath_ineligible(net) is not None
        net.run(ScatterPattern(8, size_bytes=256).phases(RngStreams(1)))
        assert_windows_never_open(net)

    def test_faults_ineligible(self):
        schedule = FaultSchedule(
            events=(FaultEvent(time_ps=ns(500), kind=FaultKind.LINK_FAIL, port=0),)
        )
        net = TdmNetwork(P8, k=4, faults=FaultInjector(schedule), fast=True)
        assert fastpath_ineligible(net) is not None

    def test_multi_unit_scheduler_ineligible(self):
        net = TdmNetwork(P8, k=4, n_sl_units=2, fast=True)
        net.run(ScatterPattern(8, size_bytes=256).phases(RngStreams(1)))
        assert_windows_never_open(net)

    def test_constrained_scheduler_ineligible(self):
        net = TdmNetwork(P8, k=4, fabric_constraint=binary_fat_tree(8), fast=True)
        net.run(ScatterPattern(8, size_bytes=256).phases(RngStreams(1)))
        assert_windows_never_open(net)

    def test_fast_from_env(self, monkeypatch):
        monkeypatch.delenv(FAST_ENV_VAR, raising=False)
        assert fast_from_env() is False
        monkeypatch.setenv(FAST_ENV_VAR, "0")
        assert fast_from_env() is False
        monkeypatch.setenv(FAST_ENV_VAR, "1")
        assert fast_from_env() is True

    def test_event_count_credited_exactly(self):
        """Skipped clock ticks are credited: the events counter matches."""
        pattern = ScatterPattern(8, size_bytes=2048)
        rs, rf, fast = run_both(
            lambda f: TdmNetwork(P8, k=4, injection_window=4, fast=f), pattern
        )
        assert rs.counters["events"] == rf.counters["events"]
        stats = fast._fastpath.stats()
        # the credit is real: more ticks were applied than heap events run
        assert stats["quiet_slot_ticks"] + stats["quiet_sl_ticks"] > 0
