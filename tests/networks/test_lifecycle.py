"""Edge-case tests for the shared connection-lifecycle layer.

Two halves: direct unit tests that drive :class:`ConnectionManager`
through a fake scheme client (so races can be staged deterministically),
and integration tests that run the real schemes — parametrized over
circuit switching and TDM — through the registry with hand-written fault
schedules.
"""

from __future__ import annotations

import pytest

from repro.faults import (
    FaultEvent,
    FaultInjector,
    FaultKind,
    FaultSchedule,
    RetryPolicy,
)
from repro.metrics.degradation import degradation_report
from repro.networks.lifecycle import ConnectionManager
from repro.networks.registry import RunSpec, build_network
from repro.params import PAPER_PARAMS
from repro.sim.clock import ns
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams
from repro.sim.trace import Tracer
from repro.traffic.base import TrafficPhase, assign_seq
from repro.traffic.hybrid import HybridPattern
from repro.types import Message

PARAMS = PAPER_PARAMS.with_overrides(n_ports=8)


class _FakeNet:
    """The slice of BaseNetwork a ConnectionManager actually touches."""

    def __init__(self, injector: FaultInjector) -> None:
        self.params = PARAMS
        self.sim = Simulator()
        self.tracer = Tracer()
        self.fault_injector = injector
        self.down_calls: list[int] = []
        self.up_calls: list[int] = []
        self.dead_calls: list[int] = []

    def _on_link_down(self, port: int) -> None:
        self.down_calls.append(port)

    def _on_link_up(self, port: int) -> None:
        self.up_calls.append(port)

    def _on_link_dead(self, port: int) -> None:
        self.dead_calls.append(port)


class _FakeClient:
    """A scheme whose lifecycle policy the test scripts directly."""

    def __init__(self) -> None:
        self.resolved = False
        self.remap_ok = False
        self.seq: int | None = 7
        self.retries: list[tuple[int, int]] = []
        self.remaps: list[tuple[int, int]] = []
        self.gave_up: list[tuple[int, int]] = []
        self.pinned_lost = 0

    def lifecycle_watch_ref(self, u, v):
        return (u, v), self.seq

    def lifecycle_watch_resolved(self, u, v, seq):
        return self.resolved

    def lifecycle_awaiting_grant(self, u, v):
        return True

    def lifecycle_awaiting_sl_dead(self, u, v):
        return True

    def lifecycle_retry(self, u, v):
        self.retries.append((u, v))

    def lifecycle_mgmt_remap(self, u, v):
        self.remaps.append((u, v))
        return self.remap_ok

    def lifecycle_give_up(self, u, v):
        self.gave_up.append((u, v))

    def lifecycle_pinned_lost(self):
        self.pinned_lost += 1


def _manager(
    max_retries: int = 1, mgmt_attempts: int = 1
) -> tuple[ConnectionManager, _FakeNet, _FakeClient]:
    injector = FaultInjector(
        FaultSchedule(events=()),
        retry=RetryPolicy(
            timeout_ps=ns(100),
            backoff=2.0,
            max_retries=max_retries,
            mgmt_attempts=mgmt_attempts,
            max_delay_ps=ns(1_000),
        ),
    )
    net = _FakeNet(injector)
    mgr = ConnectionManager(net)  # type: ignore[arg-type]
    client = _FakeClient()
    mgr.attach_scheduler(object(), client)  # type: ignore[arg-type]
    return mgr, net, client


class TestWatchdogEdgeCases:
    def test_fire_after_recovery_self_cancels(self):
        """A watchdog whose connection recovered before the timeout must
        retire silently: no retry, no escalation, no give-up."""
        mgr, net, client = _manager()
        mgr.arm(0, 1)
        assert mgr.watch_count == 1
        client.resolved = True  # link came back; the grant went through
        net.sim.run()
        assert mgr.watch_count == 0
        assert client.retries == []
        assert client.remaps == []
        assert client.gave_up == []
        assert net.fault_injector.counters["request_retries"] == 0

    def test_give_up_racing_a_grant(self):
        """The grant lands between the last escalation and the final
        timeout: the fire must see the resolution and NOT give up."""
        mgr, net, client = _manager(max_retries=1, mgmt_attempts=1)
        mgr.arm(0, 1)
        # fires at 100 (retry), 300 (mgmt, fails), 700 (would give up)
        net.sim.schedule(ns(500), lambda: setattr(client, "resolved", True))
        net.sim.run()
        assert client.retries == [(0, 1)]
        assert client.remaps == [(0, 1)]
        assert client.gave_up == []
        assert mgr.watch_count == 0
        assert net.fault_injector.counters["unrecoverable_connections"] == 0

    def test_retry_ladder_exhausts_to_give_up(self):
        mgr, net, client = _manager(max_retries=2, mgmt_attempts=1)
        mgr.arm(2, 3)
        net.sim.run()
        assert client.retries == [(2, 3), (2, 3)]
        assert client.remaps == [(2, 3)]
        assert client.gave_up == [(2, 3)]
        assert mgr.watch_count == 0
        counters = net.fault_injector.counters
        assert counters["request_retries"] == 2
        assert counters["mgmt_attempts"] == 1
        assert counters["unrecoverable_connections"] == 1

    def test_mgmt_remap_success_retires_watch(self):
        mgr, net, client = _manager(max_retries=0, mgmt_attempts=3)
        client.remap_ok = True
        mgr.arm(0, 1)
        net.sim.run()
        assert client.remaps == [(0, 1)]
        assert client.gave_up == []
        assert mgr.watch_count == 0

    def test_rearm_same_seq_keeps_attempt_count(self):
        """Re-arming the same (key, seq) must not reset the backoff."""
        mgr, net, client = _manager()
        mgr.arm(0, 1)
        first = mgr._watches[(0, 1)].event
        mgr.arm(0, 1)
        assert mgr.watch_count == 1
        assert mgr._watches[(0, 1)].event is first  # untouched

    def test_rearm_new_seq_restarts_watch(self):
        """A new head-of-line message supersedes the stale watch."""
        mgr, net, client = _manager()
        mgr.arm(0, 1)
        mgr._watches[(0, 1)].attempts = 3
        client.seq = 8
        mgr.arm(0, 1)
        assert mgr.watch_count == 1
        watch = mgr._watches[(0, 1)]
        assert (watch.seq, watch.attempts) == (8, 0)

    def test_stale_seq_fire_is_ignored(self):
        """The old watch's in-flight timeout must not act on the new one."""
        mgr, net, client = _manager()
        mgr.arm(0, 1)
        client.seq = 8
        mgr.arm(0, 1)  # cancels the seq-7 event, schedules a seq-8 one
        client.resolved = True
        net.sim.run()
        assert client.gave_up == []
        assert mgr.watch_count == 0

    def test_arm_dead_endpoint_is_refused(self):
        mgr, net, client = _manager()
        mgr.port_link_dead(1)
        mgr.arm(0, 1)
        mgr.arm(1, 2)
        assert mgr.watch_count == 0

    def test_disarm_port_drops_both_directions(self):
        mgr, net, client = _manager()
        mgr.arm(0, 1)
        client.seq = 9
        mgr.arm(1, 2)  # distinct key (1, 2)
        client.seq = 11
        mgr.arm(4, 5)
        mgr.disarm_port(1)
        assert (0, 1) not in mgr._watches
        assert (1, 2) not in mgr._watches
        assert (4, 5) in mgr._watches

    def test_phase_reset_cancels_everything(self):
        mgr, net, client = _manager()
        mgr.arm(0, 1)
        client.seq = 9
        mgr.arm(2, 3)
        mgr.phase_reset()
        assert mgr.watch_count == 0
        net.sim.run()  # cancelled events must not fire
        assert client.retries == []
        assert client.gave_up == []


class TestLinkStateEdgeCases:
    def test_double_link_down_same_port(self):
        """Overlapping transients must not double-apply (or double-trace)."""
        mgr, net, _ = _manager()
        assert mgr.port_link_down(3, ns(100)) is True
        assert mgr.port_link_down(3, ns(100)) is False
        assert net.down_calls == [3]
        mgr.port_link_up(3)
        assert not mgr.link_down[3]
        assert net.up_calls == [3]

    def test_double_link_dead_same_port(self):
        mgr, net, _ = _manager()
        assert mgr.port_link_dead(5) is True
        assert mgr.port_link_dead(5) is False
        assert net.dead_calls == [5]

    def test_link_up_never_revives_a_dead_port(self):
        """A transient's scheduled link-up racing a permanent failure."""
        mgr, net, _ = _manager()
        mgr.port_link_down(2, ns(100))
        mgr.port_link_dead(2)
        mgr.port_link_up(2)  # the transient's recovery event fires late
        assert mgr.link_down[2]
        assert mgr.link_dead[2]
        assert net.up_calls == []

    def test_down_then_dead_traces_once_each(self):
        mgr, net, _ = _manager()
        mgr.port_link_down(4, ns(50))
        assert mgr.port_link_dead(4) is True
        assert net.down_calls == [4]
        assert net.dead_calls == [4]


def _deterministic_phase(n: int, size: int = 512) -> list[TrafficPhase]:
    msgs = [Message(src=u, dst=(u + 1) % n, size=size) for u in range(n)]
    phase = TrafficPhase("ring", msgs)
    assign_seq([phase])
    return [phase]


SCHEME_SPECS = {
    "circuit": lambda inj: RunSpec("circuit", PARAMS, faults=inj),
    "dynamic-tdm": lambda inj: RunSpec(
        "dynamic-tdm", PARAMS, k=4, injection_window=4, faults=inj
    ),
}


@pytest.mark.parametrize("scheme", sorted(SCHEME_SPECS))
class TestSchemeIntegration:
    """The same lifecycle layer drives both recovering schemes."""

    def test_req_drop_storm_still_delivers_everything(self, scheme):
        """Dropped request bits are retried, never silently lost."""
        events = tuple(
            FaultEvent(time_ps=t, kind=FaultKind.REQ_DROP, src=0, dst=1)
            for t in (ns(20), ns(60), ns(120), ns(300), ns(900))
        )
        inj = FaultInjector(FaultSchedule(events=events))
        net = build_network(SCHEME_SPECS[scheme](inj))
        result = net.run(_deterministic_phase(PARAMS.n_ports))
        report = degradation_report(result)
        assert report.delivered_fraction == 1.0
        applied = inj.counters["applied_req_drop"]
        skipped = inj.counters["skipped_req_drop"]
        assert applied + skipped == len(events)

    def test_dead_port_drops_only_its_traffic(self, scheme):
        """A permanent failure gives up that port's messages and disarms
        its watches; everyone else still completes."""
        events = (FaultEvent(time_ps=ns(10), kind=FaultKind.LINK_FAIL, port=1),)
        inj = FaultInjector(FaultSchedule(events=events))
        net = build_network(SCHEME_SPECS[scheme](inj))
        result = net.run(_deterministic_phase(PARAMS.n_ports))
        report = degradation_report(result)
        assert inj.counters["applied_link_fail"] == 1
        assert report.dropped > 0
        assert report.delivered > 0
        assert report.delivered + report.dropped == PARAMS.n_ports
        assert net.lifecycle.watch_count == 0  # nothing leaked past the run


class TestDegradeToDynamic:
    def test_eviction_during_degrade_to_dynamic(self):
        """Corrupting a pinned slot degrades the hybrid scheme to fully
        dynamic scheduling; the evicted connections are re-armed and the
        run still delivers everything."""
        pattern = HybridPattern(
            PARAMS.n_ports, 512, determinism=1.0, messages_per_node=4, n_static=2
        )
        events = (
            FaultEvent(time_ps=ns(200), kind=FaultKind.REG_CORRUPT, slot=0),
        )
        inj = FaultInjector(FaultSchedule(events=events))
        net = build_network(
            RunSpec(
                "hybrid",
                PARAMS,
                k=4,
                k_preload=2,
                injection_window=4,
                faults=inj,
            )
        )
        result = net.run(pattern.phases(RngStreams(7)), pattern_name=pattern.name)
        assert inj.counters["applied_reg_corrupt"] == 1
        assert result.counters.get("fault_degraded_to_dynamic") == 1
        assert degradation_report(result).delivered_fraction == 1.0
