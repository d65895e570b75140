"""Unit tests for the fault injector's arming, dispatch, and bookkeeping."""

from __future__ import annotations

from repro.faults import FaultEvent, FaultInjector, FaultKind, FaultSchedule
from repro.networks.wormhole import WormholeNetwork
from repro.params import PAPER_PARAMS
from repro.sim.clock import ns, us
from repro.traffic.base import TrafficPhase, assign_seq
from repro.types import Message


def _phase(n_messages: int = 6, size: int = 256) -> TrafficPhase:
    msgs = [
        Message(src=i % 4, dst=(i + 1) % 4, size=size) for i in range(n_messages)
    ]
    phase = TrafficPhase("t", msgs)
    assign_seq([phase])
    return phase


class TestActivation:
    def test_empty_schedule_inactive(self):
        assert not FaultInjector(FaultSchedule(events=())).active

    def test_nonempty_schedule_active(self):
        sched = FaultSchedule(
            events=(FaultEvent(time_ps=ns(10), kind=FaultKind.LINK_FAIL, port=0),)
        )
        assert FaultInjector(sched).active


class TestDispatchCounters:
    def test_applied_and_skipped_kinds_counted(self):
        """Wormhole has no scheduler plane: link faults apply, the rest skip."""
        sched = FaultSchedule(
            events=(
                FaultEvent(
                    time_ps=ns(50),
                    kind=FaultKind.LINK_TRANSIENT,
                    port=0,
                    duration_ps=ns(100),
                ),
                FaultEvent(time_ps=ns(60), kind=FaultKind.REG_STUCK, slot=0),
                FaultEvent(time_ps=ns(70), kind=FaultKind.REQ_DROP, src=0, dst=1),
                FaultEvent(time_ps=ns(80), kind=FaultKind.SL_DEAD, src=1, dst=2),
                FaultEvent(time_ps=ns(90), kind=FaultKind.LINK_FAIL, port=3),
            )
        )
        inj = FaultInjector(sched)
        params = PAPER_PARAMS.with_overrides(n_ports=4)
        net = WormholeNetwork(params, faults=inj)
        net.run([_phase()])
        counters = inj.counters.as_dict()
        assert counters["applied_link_transient"] == 1
        assert counters["applied_link_fail"] == 1
        assert counters["skipped_reg_stuck"] == 1
        assert counters["skipped_req_drop"] == 1
        assert counters["skipped_sl_dead"] == 1

    def test_fault_counters_reach_run_result(self):
        sched = FaultSchedule(
            events=(FaultEvent(time_ps=ns(50), kind=FaultKind.LINK_FAIL, port=3),)
        )
        params = PAPER_PARAMS.with_overrides(n_ports=4)
        result = WormholeNetwork(params, faults=FaultInjector(sched)).run([_phase()])
        assert result.counters["fault_applied_link_fail"] == 1

    def test_faults_after_run_end_missed(self):
        """Faults scheduled beyond the drained run are counted as missed."""
        sched = FaultSchedule(
            events=(FaultEvent(time_ps=us(500), kind=FaultKind.LINK_FAIL, port=0),)
        )
        inj = FaultInjector(sched)
        params = PAPER_PARAMS.with_overrides(n_ports=4)
        result = WormholeNetwork(params, faults=inj).run([_phase()])
        # the run drains long before 500 us; the armed event simply never
        # fires inside the phase loop, and nothing was applied or skipped
        assert not any(k.startswith("applied_") for k in inj.counters.as_dict())
        assert result.drops == []


class TestRecoveryBookkeeping:
    def test_disrupt_then_progress_records_latency(self):
        sched = FaultSchedule(
            events=(FaultEvent(time_ps=ns(10), kind=FaultKind.LINK_FAIL, port=0),)
        )
        inj = FaultInjector(sched)
        params = PAPER_PARAMS.with_overrides(n_ports=4)
        net = WormholeNetwork(params, faults=inj)
        net.run([_phase()])  # binds the injector to net.sim
        inj.recovery_ps = []
        net.sim.now = 1000
        inj.note_disrupted(1, 2)
        inj.note_disrupted(1, 2)  # keeps the earliest disruption time
        net.sim.now = 5000
        inj.note_progress(1, 2)
        assert inj.recovery_ps == [4000]
        inj.note_progress(1, 2)  # no window open: no-op
        assert inj.recovery_ps == [4000]

    def test_cancel_drops_window_without_recording(self):
        inj = FaultInjector(
            FaultSchedule(
                events=(FaultEvent(time_ps=ns(10), kind=FaultKind.LINK_FAIL, port=0),)
            )
        )
        params = PAPER_PARAMS.with_overrides(n_ports=4)
        net = WormholeNetwork(params, faults=inj)
        net.run([_phase()])
        inj.recovery_ps = []
        inj.note_disrupted(1, 2)
        inj.note_disrupted(3, 1)
        inj.cancel_awaiting(1, 2)
        inj.cancel_awaiting_port(1)
        inj.note_progress(1, 2)
        inj.note_progress(3, 1)
        assert inj.recovery_ps == []
