"""The connection-lifecycle layer shared by every switching scheme.

Every scheme that recovers from faults needs the same machinery: per-port
link up/down/dead state, NIC-side watchdog timers with bounded retries,
escalation to the management plane, explicit give-up, and the
scheme-independent halves of the scheduler-plane fault hooks (stuck /
corrupt / quarantined configuration slots, dropped request bits, dead SL
cells).  Before this module existed, :mod:`repro.networks.circuit` and
:mod:`repro.networks.tdm` each carried a private copy of all of it — and
any new scheme would have needed a third.

:class:`ConnectionManager` owns that machinery exactly once.  A scheme
participates by implementing the small :class:`LifecycleClient` policy
surface — *what counts as still-waiting*, *how to retry a request*, *how
to ask the management plane for a slot*, *what to drop on give-up* — and
the manager drives the state machine:

.. code-block:: text

    armed --timeout--> retry request      (policy.max_retries times)
          --timeout--> management remap   (until policy.total_attempts)
          --timeout--> give up connection (drop its queued messages)

A watchdog disarms itself the moment its connection progresses (grant
seen, queue drained, or the stall turns out to be a link outage the data
plane already handles).  All of it is inert unless a
:class:`~repro.faults.injector.FaultInjector` with a non-empty schedule
is attached, so healthy runs are bit-identical with or without it.

Layering (see ``docs/architecture.md``):

.. code-block:: text

    sim kernel -> fabric -> lifecycle (this module) -> schemes -> experiments/CLI
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Hashable, Protocol

import numpy as np

from ..sim.engine import Event, Priority
from ..types import Connection

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..faults.injector import FaultInjector
    from ..sched.scheduler import Scheduler
    from .base import BaseNetwork

__all__ = ["ConnectionManager", "LifecycleClient"]


@dataclass(slots=True)
class _Watch:
    """NIC-side watchdog state for one stalled connection.

    ``seq`` lets schemes whose watch outlives the message it was armed for
    (circuit switching watches the head-of-line message of a port) detect
    staleness: a fire whose ``seq`` no longer matches self-cancels.  It is
    a token that must differ per watched message (circuit switching uses
    the head message's identity, since ``Message.seq`` may repeat).  Schemes that key watches purely by connection leave it ``None``.
    """

    u: int
    v: int
    attempts: int
    seq: int | None
    event: Event


class LifecycleClient(Protocol):
    """The policy surface a scheme supplies to :class:`ConnectionManager`.

    These callbacks are the *scheme-specific* halves of fault recovery;
    everything else — timers, retry budgets, escalation order, link-state
    bookkeeping, recovery-latency accounting — lives in the manager.

    A client that subclasses this protocol inherits the default bodies of
    :meth:`lifecycle_watch_ref` (one watch per connection),
    :meth:`lifecycle_awaiting_sl_dead` (a dead SL cell disrupts whatever
    still awaits a grant) and :meth:`lifecycle_pinned_lost` (no pinned
    slots to lose); the other five it must implement.
    """

    def lifecycle_watch_ref(self, u: int, v: int) -> tuple[Hashable, int | None]:
        """The (key, seq) a watchdog for connection (u, v) should carry."""
        return (u, v), None

    def lifecycle_watch_resolved(self, u: int, v: int, seq: int | None) -> bool:
        """Has the watched connection progressed (or stopped mattering)?"""
        ...

    def lifecycle_awaiting_grant(self, u: int, v: int) -> bool:
        """Is (u, v) still waiting on the scheduler after losing its slot
        or request bit?"""
        ...

    def lifecycle_awaiting_sl_dead(self, u: int, v: int) -> bool:
        """Is (u, v) disrupted by its SL cell dying?"""
        return self.lifecycle_awaiting_grant(u, v)

    def lifecycle_retry(self, u: int, v: int) -> None:
        """Re-raise the request line for (u, v) (wire delay included)."""
        ...

    def lifecycle_mgmt_remap(self, u: int, v: int) -> bool:
        """Ask the management plane to place (u, v) directly into a slot;
        True on success (the manager then retires the watchdog)."""
        ...

    def lifecycle_give_up(self, u: int, v: int) -> None:
        """Recovery failed for good: drop everything queued on (u, v)."""
        ...

    def lifecycle_pinned_lost(self) -> None:
        """A pinned (preloaded) slot was lost to a fault (degrade hook)."""
        # no pinned slots, nothing to degrade; the explicit body keeps type
        # checkers from taking the method as abstract in a subclass
        return None


class ConnectionManager:
    """Scheme-independent connection-lifecycle state for one run.

    Created by :class:`~repro.networks.base.BaseNetwork` at run start; it
    always owns the per-port link state.  Schemes with a scheduler attach
    it (:meth:`attach_scheduler`) to also get the watchdog machinery and
    the scheduler-plane fault-hook halves.
    """

    def __init__(self, net: BaseNetwork) -> None:
        self._net = net
        n = net.params.n_ports
        #: per-port transient-outage state (True while links are down)
        self.link_down: np.ndarray = np.zeros(n, dtype=bool)
        #: per-port permanent-failure state (dead implies down)
        self.link_dead: np.ndarray = np.zeros(n, dtype=bool)
        # test fakes may not model a fabric shape; no topology = no trunks
        topo = getattr(net, "topology", None)
        n_trunks = 0 if topo is None else topo.n_links
        #: per-trunk-link transient-outage state (multi-switch fabrics)
        self.trunk_down: np.ndarray = np.zeros(n_trunks, dtype=bool)
        #: per-trunk-link permanent-failure state (dead implies down)
        self.trunk_dead: np.ndarray = np.zeros(n_trunks, dtype=bool)
        self.scheduler: Scheduler | None = None
        self._client: LifecycleClient | None = None
        self._watches: dict[Hashable, _Watch] = {}

    def attach_scheduler(
        self, scheduler: Scheduler | None, client: LifecycleClient
    ) -> None:
        """Register the scheme's lifecycle policy (and single scheduler).

        Multi-switch schemes own one scheduler *per switch* and pass
        ``None`` here: they get the watchdog ladder and link-state
        machinery, while the single-scheduler fault-hook halves
        (:meth:`slot_stuck` … :meth:`sl_dead`) stay unreachable — their
        network-level hooks decline those faults instead.
        """
        self.scheduler = scheduler
        self._client = client

    # -- introspection -------------------------------------------------------------

    @property
    def watch_count(self) -> int:
        return len(self._watches)

    def _injector(self) -> FaultInjector:
        injector = self._net.fault_injector
        assert injector is not None
        return injector

    # -- per-port link transitions ---------------------------------------------------

    def port_link_down(self, port: int, duration_ps: int) -> bool:
        """A transient outage takes both of ``port``'s links down."""
        if self.link_down[port]:
            return False  # already down (dead, or overlapping transient)
        net = self._net
        self.link_down[port] = True
        net.tracer.record(net.sim.now, "fault-link-down", port=port)
        net._on_link_down(port)
        return True

    def port_link_up(self, port: int) -> None:
        """A transient outage ends (never fires for dead ports)."""
        if self.link_dead[port]:
            return
        net = self._net
        self.link_down[port] = False
        net.tracer.record(net.sim.now, "fault-link-up", port=port)
        net._on_link_up(port)

    def port_link_dead(self, port: int) -> bool:
        """A permanent failure kills both of ``port``'s links."""
        if self.link_dead[port]:
            return False
        net = self._net
        self.link_dead[port] = True
        self.link_down[port] = True
        net.tracer.record(net.sim.now, "fault-link-dead", port=port)
        if net.fault_injector is not None:
            net.fault_injector.cancel_awaiting_port(port)
        net._on_link_dead(port)
        return True

    # -- per-trunk-link transitions (multi-switch fabrics) ----------------------------

    def trunk_link_down(self, link: int, duration_ps: int) -> bool:
        """A transient outage takes inter-switch trunk ``link`` down."""
        if self.trunk_down[link]:
            return False  # already down (dead, or overlapping transient)
        net = self._net
        self.trunk_down[link] = True
        net.tracer.record(net.sim.now, "fault-trunk-down", link=link)
        net._on_trunk_down(link)
        return True

    def trunk_link_up(self, link: int) -> None:
        """A trunk's transient outage ends (never fires for dead links)."""
        if self.trunk_dead[link]:
            return
        net = self._net
        self.trunk_down[link] = False
        net.tracer.record(net.sim.now, "fault-trunk-up", link=link)
        net._on_trunk_up(link)

    def trunk_link_dead(self, link: int) -> bool:
        """A permanent failure kills inter-switch trunk ``link``."""
        if self.trunk_dead[link]:
            return False
        net = self._net
        self.trunk_dead[link] = True
        self.trunk_down[link] = True
        net.tracer.record(net.sim.now, "fault-trunk-dead", link=link)
        net._on_trunk_dead(link)
        return True

    # -- scheduler-plane fault hooks (scheme-independent halves) ----------------------

    def slot_stuck(self, slot: int) -> bool:
        """A configuration register froze: writes are silently lost."""
        sched = self.scheduler
        assert sched is not None
        regs = sched.registers
        if not 0 <= slot < sched.k or slot in regs.stuck or slot in regs.quarantined:
            return False
        regs.set_stuck(slot)
        net = self._net
        net.tracer.record(net.sim.now, "fault-slot-stuck", slot=slot)
        return True

    def slot_corrupt(self, slot: int) -> bool:
        """A register's configuration scrambled: its connections evaporate."""
        sched = self.scheduler
        assert sched is not None
        regs = sched.registers
        if not 0 <= slot < sched.k or slot in regs.stuck or slot in regs.quarantined:
            return False
        evicted = list(regs[slot].connections())
        was_pinned = slot in regs.pinned
        regs.clear_slot(slot)
        net = self._net
        net.tracer.record(net.sim.now, "fault-slot-corrupt", slot=slot)
        if was_pinned:
            self._require_client().lifecycle_pinned_lost()
        self.watch_disrupted(evicted)
        return True

    def slot_quarantine(self, slot: int) -> None:
        """Detection follow-up: take a stuck slot out of service."""
        sched = self.scheduler
        assert sched is not None
        regs = sched.registers
        if not 0 <= slot < sched.k or slot in regs.quarantined:
            return
        was_pinned = slot in regs.pinned
        evicted = sched.quarantine_slot(slot)
        net = self._net
        net.tracer.record(net.sim.now, "fault-slot-quarantine", slot=slot)
        if was_pinned:
            self._require_client().lifecycle_pinned_lost()
        self.watch_disrupted(evicted)

    def request_drop(self, u: int, v: int) -> bool:
        """A pending request bit (u -> v) was lost on the wire."""
        sched = self.scheduler
        assert sched is not None
        sched.set_request(u, v, False)
        net = self._net
        net.tracer.record(net.sim.now, "fault-req-drop", src=u, dst=v)
        client = self._require_client()
        if client.lifecycle_awaiting_grant(u, v):
            self._injector().note_disrupted(u, v)
            self.arm(u, v)
        return True

    def sl_dead(self, u: int, v: int) -> bool:
        """An SL cell died: (u, v) can never be scheduled dynamically."""
        sched = self.scheduler
        assert sched is not None
        sched.kill_cell(u, v)
        net = self._net
        net.tracer.record(net.sim.now, "fault-sl-dead", src=u, dst=v)
        client = self._require_client()
        if client.lifecycle_awaiting_sl_dead(u, v):
            self._injector().note_disrupted(u, v)
            self.arm(u, v)
        return True

    def watch_disrupted(self, evicted: list[Connection]) -> None:
        """Connections lost their slot; watch the ones still waiting."""
        client = self._require_client()
        injector = self._injector()
        for u, v in evicted:
            if client.lifecycle_awaiting_grant(u, v):
                injector.note_disrupted(u, v)
                self.arm(u, v)

    def _require_client(self) -> LifecycleClient:
        client = self._client
        assert client is not None, "scheme never called attach_scheduler()"
        return client

    # -- the NIC-side watchdogs -------------------------------------------------------

    def arm(self, u: int, v: int) -> None:
        """Start (or keep) a watchdog for connection (u, v).

        A watch already covering the same (key, seq) is kept as-is; a
        stale one (circuit switching's head-of-line message changed) is
        cancelled and re-armed from attempt zero.  Dead endpoints never
        get watches — their traffic is dropped, not recovered.
        """
        if self.link_dead[u] or self.link_dead[v]:
            return
        client = self._require_client()
        key, seq = client.lifecycle_watch_ref(u, v)
        watch = self._watches.get(key)
        if watch is not None:
            if watch.seq == seq:
                return
            watch.event.cancel()
        policy = self._injector().retry
        event = self._net.sim.schedule(
            policy.delay_ps(0), self._watch_fire, key, seq, priority=Priority.NIC
        )
        self._watches[key] = _Watch(u=u, v=v, attempts=0, seq=seq, event=event)

    def disarm(self, key: Hashable) -> None:
        """Cancel one watchdog (the scheme resolved its connection itself)."""
        watch = self._watches.pop(key, None)
        if watch is not None:
            watch.event.cancel()

    def disarm_port(self, port: int) -> None:
        """A port died: none of its watches can ever succeed."""
        for key in [k for k, w in self._watches.items() if port in (w.u, w.v)]:
            self._watches.pop(key).event.cancel()

    def phase_reset(self) -> None:
        """Phase barrier: stale watchdogs must not leak into the next phase."""
        for watch in self._watches.values():
            watch.event.cancel()
        self._watches.clear()

    def _watch_fire(self, key: Hashable, seq: int | None) -> None:
        watch = self._watches.get(key)
        if watch is None or watch.seq != seq:
            return  # superseded while the timeout event was in flight
        u, v = watch.u, watch.v
        client = self._require_client()
        if client.lifecycle_watch_resolved(u, v, seq):
            del self._watches[key]  # progressed — nothing to recover
            return
        injector = self._injector()
        policy = injector.retry
        attempt = watch.attempts
        watch.attempts += 1
        if attempt < policy.max_retries:
            # re-raise the request line and back off
            injector.counters.inc("request_retries")
            client.lifecycle_retry(u, v)
        elif attempt < policy.total_attempts:
            # escalate: ask the management plane for a direct slot placement
            injector.counters.inc("mgmt_attempts")
            if client.lifecycle_mgmt_remap(u, v):
                del self._watches[key]
                return
        else:
            # retry budget exhausted and no healthy slot: give it up
            del self._watches[key]
            self.give_up(u, v)
            return
        watch.event = self._net.sim.schedule(
            policy.delay_ps(watch.attempts),
            self._watch_fire,
            key,
            seq,
            priority=Priority.NIC,
        )

    def give_up(self, u: int, v: int) -> None:
        """Recovery failed: account the loss, then let the scheme drop."""
        injector = self._injector()
        injector.cancel_awaiting(u, v)
        injector.counters.inc("unrecoverable_connections")
        self._require_client().lifecycle_give_up(u, v)
