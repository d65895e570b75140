"""The fault injector: arms a schedule's faults on the event loop.

The injector sits between a :class:`~repro.faults.schedule.FaultSchedule`
and a network model.  At run start the network binds it
(:meth:`FaultInjector.bind`); the injector then arms exactly one pending
fault at a time on the simulator at ``Priority.FABRIC`` (faults strike the
hardware before wires, schedulers or NICs react at the same instant) and,
when it fires, dispatches to the network's public ``fault_*`` hooks — it
never reaches into simulator internals behind the model's back.

The injector also plays bookkeeper for the campaign:

* per-kind counters of faults applied vs. skipped (a scheme without a
  request plane skips request-wire faults, etc.);
* detection events — stuck registers are quarantined 400 ns after the
  fault (the management plane's scrubber latency);
* recovery latency — the time from a connection's disruption to its next
  successfully transferred byte, collected across the run.

When the schedule is empty (``active`` is False) the injector arms
nothing, the networks arm none of their recovery machinery, and a run is
bit-identical to one without the fault subsystem at all.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..errors import ConfigurationError
from ..sim.clock import ns
from ..sim.engine import Priority
from ..sim.stats import Counter
from ..types import Connection
from .model import FaultEvent, FaultKind
from .recovery import RetryPolicy
from .schedule import FaultSchedule

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..networks.base import BaseNetwork

__all__ = ["FaultInjector"]

#: the management plane's scrubber latency: how long after a register
#: sticks it is quarantined
_DETECT_PS = ns(400)


class FaultInjector:
    """Replays a fault schedule against one network model per run."""

    def __init__(
        self,
        schedule: FaultSchedule,
        *,
        retry: RetryPolicy | None = None,
    ) -> None:
        self.schedule = schedule
        self.retry = retry if retry is not None else RetryPolicy()
        self.counters = Counter()
        self.recovery_ps: list[int] = []
        self._network: BaseNetwork | None = None
        self._cursor = 0
        self._awaiting: dict[Connection, int] = {}

    @property
    def active(self) -> bool:
        """True when the schedule holds at least one fault.

        Networks gate *all* recovery machinery on this, so an injector
        with an empty schedule (rate 0) changes nothing about a run.
        """
        return bool(self.schedule)

    # -- lifecycle ---------------------------------------------------------------

    def bind(self, network: BaseNetwork) -> None:
        """Attach to a network at run start and arm the first fault.

        Rebinding (a new run, possibly of a different scheme) resets all
        per-run state, so one injector can replay the identical storm
        against every scheme in a sweep.
        """
        self._network = network
        self._cursor = 0
        self._awaiting = {}
        self.counters = Counter()
        self.recovery_ps = []
        if self.active:
            self._arm_next()

    def _arm_next(self) -> None:
        net = self._network
        assert net is not None
        while self._cursor < len(self.schedule.events):
            ev = self.schedule.events[self._cursor]
            self._cursor += 1
            if ev.time_ps >= net.sim.now:
                net.sim.schedule_at(ev.time_ps, self._fire, ev, priority=Priority.FABRIC)
                return
            self.counters.inc("faults_missed")  # before current sim time

    # -- firing ------------------------------------------------------------------

    def _fire(self, ev: FaultEvent) -> None:
        net = self._network
        assert net is not None
        applied = self._dispatch(net, ev)
        key = ev.kind.value.replace("-", "_")
        if applied:
            self.counters.inc(f"applied_{key}")
        else:
            self.counters.inc(f"skipped_{key}")
        self._arm_next()

    def _dispatch(self, net: BaseNetwork, ev: FaultEvent) -> bool:
        if ev.kind is FaultKind.LINK_TRANSIENT:
            applied = net.fault_link_down(ev.port, ev.duration_ps)
            if applied:
                net.sim.schedule(
                    ev.duration_ps,
                    net.fault_link_up,
                    ev.port,
                    priority=Priority.FABRIC,
                )
            return applied
        if ev.kind is FaultKind.LINK_FAIL:
            return net.fault_link_dead(ev.port)
        if ev.kind is FaultKind.REG_STUCK:
            applied = net.fault_slot_stuck(ev.slot)
            if applied:
                # the scrubber notices the slot misbehaving _DETECT_PS later
                net.sim.schedule(
                    _DETECT_PS,
                    net.fault_slot_quarantine,
                    ev.slot,
                    priority=Priority.FABRIC,
                )
            return applied
        if ev.kind is FaultKind.REG_CORRUPT:
            return net.fault_slot_corrupt(ev.slot)
        if ev.kind is FaultKind.REQ_DROP:
            return net.fault_request_drop(ev.src, ev.dst)
        if ev.kind is FaultKind.SL_DEAD:
            return net.fault_sl_dead(ev.src, ev.dst)
        raise ConfigurationError(f"unknown fault kind {ev.kind!r}")  # pragma: no cover

    # -- recovery-latency bookkeeping ---------------------------------------------

    def note_disrupted(self, u: int, v: int) -> None:
        """A fault disrupted connection (u, v) with traffic still pending."""
        conn = (u, v)
        if conn not in self._awaiting:
            net = self._network
            assert net is not None
            self._awaiting[conn] = net.sim.now
            if net.tracer.enabled:
                net.tracer.record(net.sim.now, "recovery-open", src=u, dst=v)

    def note_progress(self, u: int, v: int) -> None:
        """Connection (u, v) moved bytes again — close its recovery window."""
        since = self._awaiting.pop((u, v), None)
        if since is not None:
            net = self._network
            assert net is not None
            latency = net.sim.now - since
            self.recovery_ps.append(latency)
            self.counters.inc("recoveries")
            if net.tracer.enabled:
                net.tracer.record(
                    net.sim.now, "recovery-closed", src=u, dst=v, latency_ps=latency
                )

    def cancel_awaiting(self, u: int, v: int) -> None:
        """Connection (u, v) was given up — it will never recover."""
        self._awaiting.pop((u, v), None)

    def cancel_awaiting_port(self, port: int) -> None:
        """A port died — none of its connections will recover."""
        for conn in [c for c in self._awaiting if port in c]:
            del self._awaiting[conn]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FaultInjector(events={len(self.schedule)}, cursor={self._cursor})"
        )
