"""Common machinery for the switching-scheme network models.

Every scheme (wormhole, circuit, dynamic/preload/hybrid TDM) simulates the
same physical plant — N NICs around one crossbar — and reports a
:class:`RunResult`.  The base class owns the parts the paper holds constant
across its comparison: message injection, the phase barrier (phase ``j+1``
enters the NICs only after phase ``j`` fully drains, as in a
bulk-synchronous program), byte-conservation accounting, and completion
bookkeeping.  Subclasses implement :meth:`_execute_phase`, which must run
the event loop until the injected phase has fully drained.

The base class also hosts the public ``fault_*`` hooks the injector
dispatches to and explicit message drops; the scheme-independent halves of
fault recovery — per-port link state, watchdog timers, retry/give-up
policy — live in the :class:`~repro.networks.lifecycle.ConnectionManager`
each run creates (:attr:`BaseNetwork.lifecycle`).  Under faults the
phase barrier's completion condition becomes *delivered or explicitly
dropped* — every injected message must end as exactly one
:class:`~repro.types.MessageRecord` or one
:class:`~repro.types.DropRecord`, and the ledger still has to balance.
All fault machinery is inert (and a run bit-identical to the fault-free
build) unless an injector with a non-empty schedule is attached.
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ..errors import SimulationError
from ..faults.injector import FaultInjector
from ..nic.flow import FlowLedger
from ..nic.nic import Nic
from ..nic.queues import DrainedMessage
from ..params import SystemParams
from ..sim.engine import Priority, Simulator
from ..sim.stats import OnlineStats
from ..sim.trace import NULL_TRACER, Tracer
from ..topo import Topology
from ..traffic.base import TrafficPhase
from ..types import DropRecord, Message, MessageRecord
from .lifecycle import ConnectionManager

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..sched.scheduler import Scheduler

__all__ = ["PhaseResult", "RunResult", "BaseNetwork"]

#: events per run safety valve (a 128-port millisecond-scale run stays far
#: below this; hitting it means a scheduling livelock bug)
MAX_EVENTS_PER_PHASE = 40_000_000

#: environment variable that turns strict invariant checking on globally
STRICT_ENV_VAR = "REPRO_STRICT"


@dataclass(slots=True)
class PhaseResult:
    """Timing of one traffic phase."""

    name: str
    start_ps: int
    end_ps: int
    bytes: int
    messages: int

    @property
    def duration_ps(self) -> int:
        return self.end_ps - self.start_ps


@dataclass
class RunResult:
    """Everything one simulation run produced."""

    scheme: str
    pattern: str
    params: SystemParams
    makespan_ps: int
    total_bytes: int
    records: list[MessageRecord]
    phases: list[PhaseResult]
    counters: dict[str, int] = field(default_factory=dict)
    #: messages explicitly given up under faults (empty in healthy runs)
    drops: list[DropRecord] = field(default_factory=list)
    #: per-disruption recovery latencies (fault to next transferred byte)
    recovery_ps: list[int] = field(default_factory=list)

    @property
    def delivered_fraction(self) -> float:
        """Fraction of injected messages that were fully delivered."""
        total = len(self.records) + len(self.drops)
        return 1.0 if total == 0 else len(self.records) / total

    @property
    def delivered_bytes(self) -> int:
        return sum(r.size for r in self.records)

    def latency_stats(self) -> OnlineStats:
        stats = OnlineStats()
        for r in self.records:
            stats.add(r.latency_ps)
        return stats

    def recovery_stats(self) -> OnlineStats:
        stats = OnlineStats()
        for r_ps in self.recovery_ps:
            stats.add(r_ps)
        return stats

    def __repr__(self) -> str:
        return (
            f"RunResult({self.scheme} on {self.pattern}: "
            f"{self.total_bytes} B in {self.makespan_ps / 1000:.1f} ns)"
        )


class BaseNetwork(ABC):
    """Shared simulation scaffolding for all switching schemes."""

    #: scheme label used in reports ("wormhole", "circuit", "tdm-dynamic", ...)
    scheme: str = "abstract"
    #: stop the event loop once the phase's last message is delivered,
    #: rather than letting periodic clocks tick on
    stop_when_drained = True

    def __init__(
        self,
        params: SystemParams,
        tracer: Tracer | None = None,
        *,
        faults: FaultInjector | None = None,
        strict: bool | None = None,
        max_wall_s: float | None = None,
        topology: Topology | None = None,
    ) -> None:
        self.params = params
        #: the fabric shape; defaults to the paper's single crossbar, where
        #: endpoint i is local port i of the one switch
        self.topology = (
            topology if topology is not None else Topology.single_switch(params.n_ports)
        )
        if self.topology.n_endpoints != params.n_ports:
            raise SimulationError(
                f"topology {self.topology.name!r} attaches "
                f"{self.topology.n_endpoints} endpoints but params define "
                f"{params.n_ports} ports"
            )
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.fault_injector = faults
        if strict is None:
            strict = os.environ.get(STRICT_ENV_VAR, "") not in ("", "0")
        #: strict mode: re-derive structural invariants at phase boundaries
        self.strict = bool(strict)
        #: wall-clock budget per event-loop excursion (None: unlimited)
        self.max_wall_s = max_wall_s
        # per-run state, created in run()
        self.sim: Simulator = Simulator()
        self.nics: list[Nic] = []
        #: every NIC's pending-byte vector as one row of an ``(n, n)``
        #: matrix, the shared view of all VOQs the data plane reads
        self.queue_bytes = np.zeros((params.n_ports, params.n_ports), dtype=np.int64)
        #: when each connection's grant reaches its NIC (request-plane
        #: schemes): a connection carries data from this time on
        self.conn_ready = np.zeros((params.n_ports, params.n_ports), dtype=np.int64)
        self.ledger: FlowLedger = FlowLedger(params.n_ports)
        self.records: list[MessageRecord] = []
        self.drops: list[DropRecord] = []
        self._phase_remaining = 0
        self._faults_active = False
        self._clocks_started = False
        #: connection-lifecycle state (link up/down/dead, watchdogs, retry
        #: policy); recreated per run, attached to the scheme's scheduler
        self.lifecycle: ConnectionManager = ConnectionManager(self)

    # -- the public entry point -------------------------------------------------

    def run(self, phases: list[TrafficPhase], pattern_name: str = "") -> RunResult:
        """Simulate all phases back to back and return the result."""
        if not phases:
            raise SimulationError("nothing to run: no phases")
        n = self.params.n_ports
        self.sim = Simulator()
        clock = lambda: self.sim.now  # noqa: E731 - rebinds to the fresh sim
        self.nics = [Nic(n, p, self.tracer, clock) for p in range(n)]
        self.queue_bytes = np.zeros((n, n), dtype=np.int64)
        for nic in self.nics:
            # a row *view*: every VOQ mutation lands in the matrix directly
            nic.voqs.bytes_pending = self.queue_bytes[nic.port]
        self.conn_ready = np.zeros((n, n), dtype=np.int64)
        self.ledger = FlowLedger(n)
        self.records = []
        self.drops = []
        self._clocks_started = False
        self.lifecycle = ConnectionManager(self)
        self._faults_active = (
            self.fault_injector is not None and self.fault_injector.active
        )
        self._reset_scheme_state()
        if self.fault_injector is not None:
            self.fault_injector.bind(self)

        phase_results: list[PhaseResult] = []
        for phase in phases:
            start = self.sim.now
            self._inject(phase)
            if not self.phase_done:
                # a phase can end at injection only when faults dropped it all
                self._execute_phase(phase)
            if self._phase_remaining != 0:
                raise SimulationError(
                    f"phase {phase.name!r} ended with {self._phase_remaining} "
                    f"unfinished messages at sim time {self.sim.now} ps "
                    f"({self.sim.pending} events still queued)"
                )
            if self._faults_active:
                self._fault_phase_reset()
            if self.strict:
                self._check_invariants()
            phase_results.append(
                PhaseResult(
                    name=phase.name,
                    start_ps=start,
                    end_ps=self.sim.now,
                    bytes=phase.total_bytes,
                    messages=len(phase.messages),
                )
            )
        self.ledger.assert_conserved()
        recovery = (
            list(self.fault_injector.recovery_ps) if self._faults_active else []
        )
        return RunResult(
            scheme=self.scheme,
            pattern=pattern_name or phases[0].name,
            params=self.params,
            makespan_ps=self.sim.now,
            total_bytes=sum(p.total_bytes for p in phases),
            records=list(self.records),
            phases=phase_results,
            counters=self._collect_counters(),
            drops=list(self.drops),
            recovery_ps=recovery,
        )

    # -- hooks for subclasses ------------------------------------------------------

    def _reset_scheme_state(self) -> None:
        """Initialise scheme-specific state for a new run."""

    @abstractmethod
    def _execute_phase(self, phase: TrafficPhase) -> None:
        """Run the event loop until the injected phase drains."""

    def _collect_counters(self) -> dict[str, int]:
        counters = {"events": self.sim.events_executed}
        if self._faults_active:
            assert self.fault_injector is not None
            counters["messages_dropped"] = len(self.drops)
            for key, value in sorted(self.fault_injector.counters.as_dict().items()):
                counters[f"fault_{key}"] = value
        return counters

    def _check_invariants(self) -> None:
        """Strict mode: re-derive structural invariants from scratch.

        Called at every phase boundary when :attr:`strict` is set (or the
        ``REPRO_STRICT=1`` environment variable is present).  Subclasses
        extend this with any further scheme-specific checks.
        """
        for nic in self.nics:
            nic.voqs.check_invariants()
        if self.lifecycle.scheduler is not None:
            self.lifecycle.scheduler.registers.check_invariants()

    # -- shared plumbing --------------------------------------------------------------

    def _run_event_loop(self) -> None:
        """One excursion of the event loop with the standard safety valves."""
        self.sim.run(max_events=MAX_EVENTS_PER_PHASE, max_wall_s=self.max_wall_s)

    def _drain_slot(
        self,
        us: np.ndarray,
        vs: np.ndarray,
        t: int,
        ready: np.ndarray | None = None,
        link_down: np.ndarray | None = None,
    ) -> list[tuple[int, int, int, list[DrainedMessage]]]:
        """Move up to one slot's bytes over each connection ``(us[i], vs[i])``.

        The select-and-drain of every slotted scheme.  One mask keeps the
        connections with queued bytes, an arrived grant (``ready <= t``,
        if given) and both endpoint links up (if ``link_down`` is given);
        they are drained in the order given and posted to the ledger.
        Returns ``(u, v, moved, done)`` per connection that moved bytes.
        """
        act = self.queue_bytes[us, vs] > 0
        if ready is not None:
            act &= ready[us, vs] <= t
        if link_down is not None:
            act &= ~(link_down[us] | link_down[vs])
        moves: list[tuple[int, int, int, list[DrainedMessage]]] = []
        if not act.any():
            return moves
        slot_bytes = self.params.slot_bytes
        byte_ps = self.params.byte_ps
        nics = self.nics
        for u, v in zip(us[act].tolist(), vs[act].tolist()):
            moved, done = nics[u].voqs.drain(v, slot_bytes, t, byte_ps)
            if moved:  # zero: the head is not yet injected
                self.ledger.send(u, v, moved)
                moves.append((u, v, moved, done))
        return moves

    # -- the request plane's clocks and wires --------------------------------------
    #
    # Circuit switching, crossbar TDM and multi-switch TDM share one plant:
    # request edges ride a request wire to the scheduler, an SL pass runs
    # every scheduler period, and the slotted schemes step a TDM frame every
    # slot.  Each clock re-arms itself while the phase or the heap still has
    # work.  The helpers take the tick as a bound method and schedule it
    # as given: the quiescent windows find the armed clocks by it.

    def _wire_scheduler(self, sched: Scheduler) -> None:
        """Give a new scheduler the run's tracer, clock and strict flag."""
        sched.tracer = self.tracer
        sched.clock = lambda: self.sim.now
        sched.strict = self.strict

    def _start_clocks(
        self, sl_tick: Callable[[], None], slot_tick: Callable[[], None] | None = None
    ) -> None:
        """Arm the slot clock (if any) and the SL clock once per run."""
        if self._clocks_started:
            return
        self._clocks_started = True
        if slot_tick is not None:
            self.sim.schedule(self.params.slot_ps, slot_tick, priority=Priority.FABRIC)
        self.sim.schedule(
            self.params.scheduler_pass_ps, sl_tick, priority=Priority.SCHEDULER
        )

    def _rearm_slot_clock(self, slot_tick: Callable[[], None]) -> None:
        if self._phase_remaining > 0 or self.sim.pending > 0:
            self.sim.schedule(self.params.slot_ps, slot_tick, priority=Priority.FABRIC)

    def _rearm_sl_clock(self, sl_tick: Callable[[], None]) -> None:
        if self._phase_remaining > 0 or self.sim.pending > 0:
            self.sim.schedule(
                self.params.scheduler_pass_ps, sl_tick, priority=Priority.SCHEDULER
            )

    def _set_request_line(self, sched: Scheduler, u: int, v: int, up: bool) -> None:
        """A request edge reached ``sched``: drive line (u, v), trace the edge."""
        if self.tracer.enabled and bool(sched.r_view[u, v]) != up:
            self.tracer.record(self.sim.now, "req-rise" if up else "req-drop", src=u, dst=v)
        sched.set_request(u, v, up)

    def _request_wire(self, fn: Callable[..., None], *args: object) -> None:
        """A request-line edge: ``fn(*args)`` runs one request wire later."""
        self.sim.schedule(self.params.request_wire_ps, fn, *args, priority=Priority.WIRE)

    def _purge_port(self, port: int) -> list[Message]:
        """Take every queued message from or to ``port`` out of the VOQs.

        The victims come in NIC order (``port``'s own queues whole), the
        order their drops are recorded in.
        """
        victims: list[Message] = []
        for nic in self.nics:
            victims.extend(nic.voqs.purge() if nic.port == port else nic.voqs.purge(port))
        return victims

    def _schedule_delivery(self, dm: DrainedMessage, fill_ps: int) -> None:
        """Deliver a drained message once its last byte crossed the pipe."""
        msg = dm.message
        record = MessageRecord(
            src=msg.src,
            dst=msg.dst,
            size=msg.size,
            inject_ps=msg.inject_ps,
            start_ps=dm.start_ps,
            done_ps=dm.finish_ps + fill_ps,
            seq=msg.seq,
        )
        self.sim.schedule_at(record.done_ps, self._deliver, record, priority=Priority.NIC)

    def _inject(self, phase: TrafficPhase) -> None:
        """Queue a phase's messages into the source NICs.

        Messages whose (phase-relative) ``inject_ps`` lies in the future
        arrive at their NIC via a scheduled event, so source queues really
        are empty between traffic bursts — predictors and request lines
        see the same edges the paper's hardware would.
        """
        now = self.sim.now
        n = self.params.n_ports
        self._phase_remaining = len(phase.messages)
        for msg in phase.messages:
            if not (0 <= msg.src < n and 0 <= msg.dst < n):
                raise SimulationError(
                    f"message ({msg.src} -> {msg.dst}) does not fit a "
                    f"{n}-port system; pattern/params size mismatch?"
                )
            # phase-relative injection offsets become absolute times
            msg.inject_ps += now
            self.ledger.offer(msg.src, msg.dst, msg.size)
            self._arrive(msg, now)

    def _arrive(self, msg: Message, now: int) -> None:
        """Bring an offered message to its NIC at its injection time: at
        once if that is the phase start, else by an arrival event."""
        if msg.inject_ps <= now:
            self._accept_or_drop(msg, at_phase_start=True)
        else:
            self.sim.schedule_at(
                msg.inject_ps,
                self._accept_or_drop,
                msg,
                False,
                priority=Priority.NIC,
            )

    def _admit(self, msg: Message) -> bool:
        """The admission rule: drop a message whose endpoint's links are
        already dead, else record its injection.  True if admitted."""
        if self._faults_active and (
            self._link_dead[msg.src] or self._link_dead[msg.dst]
        ):
            self._drop_message(msg, "dead-link")
            return False
        if self.tracer.enabled:
            self.tracer.record(
                msg.inject_ps,
                "msg-inject",
                src=msg.src,
                dst=msg.dst,
                size=msg.size,
                seq=msg.seq,
            )
        return True

    def _accept_or_drop(self, msg: Message, at_phase_start: bool) -> None:
        """Hand a message to the scheme if the admission rule lets it in."""
        if self._admit(msg):
            self._accept(msg, at_phase_start)

    def _accept(self, msg: Message, at_phase_start: bool) -> None:
        """A message arrives at its source NIC (override per scheme)."""
        self.nics[msg.src].enqueue(msg)

    def _deliver(self, record: MessageRecord) -> None:
        """Account one completed message delivery."""
        self.ledger.deliver(record.src, record.dst, record.size)
        self.records.append(record)
        self._phase_remaining -= 1
        if self._phase_remaining < 0:  # pragma: no cover
            raise SimulationError("delivered more messages than injected")
        if self.tracer.enabled:
            self.tracer.record(
                record.done_ps, "nic-rx", port=record.dst, src=record.src, bytes=record.size
            )
            self.tracer.record(
                record.done_ps,
                "deliver",
                src=record.src,
                dst=record.dst,
                size=record.size,
                seq=record.seq,
            )
        if self.phase_done and self.stop_when_drained:
            self.sim.stop()

    def _drop_message(self, msg: Message, reason: str) -> None:
        """Explicitly give a message up: account every byte, record the drop.

        Bytes still queued are *dropped* (never transmitted); bytes already
        sent are written off as *lost in flight*.  The message counts
        against the phase barrier exactly like a delivery, so a phase under
        faults completes when every message is delivered or dropped.
        """
        sent = msg.size - msg.remaining
        if msg.remaining:
            self.ledger.drop(msg.src, msg.dst, msg.remaining)
        if sent:
            self.ledger.lose(msg.src, msg.dst, sent)
        self.drops.append(
            DropRecord(
                src=msg.src,
                dst=msg.dst,
                size=msg.size,
                sent_bytes=sent,
                seq=msg.seq,
                time_ps=self.sim.now,
                reason=reason,
            )
        )
        self._phase_remaining -= 1
        if self._phase_remaining < 0:  # pragma: no cover
            raise SimulationError("dropped more messages than injected")
        if self.tracer.enabled:
            self.tracer.record(
                self.sim.now, "drop", src=msg.src, dst=msg.dst, size=msg.size, seq=msg.seq
            )
        if self._phase_remaining == 0:
            self.sim.stop()

    # -- fault hooks (dispatched by repro.faults.FaultInjector) ---------------------
    #
    # The hooks delegate to the run's ConnectionManager, which owns the
    # scheme-independent halves; schemes react through _on_link_* and the
    # lifecycle_* policy callbacks.

    @property
    def _link_down(self) -> np.ndarray:
        """Per-port transient-outage state (owned by the lifecycle layer)."""
        return self.lifecycle.link_down

    @property
    def _link_dead(self) -> np.ndarray:
        """Per-port permanent-failure state (owned by the lifecycle layer)."""
        return self.lifecycle.link_dead

    def fault_link_down(self, port: int, duration_ps: int) -> bool:
        """A transient outage takes both of ``port``'s links down."""
        return self.lifecycle.port_link_down(port, duration_ps)

    def fault_link_up(self, port: int) -> None:
        """A transient outage ends (never fires for dead ports)."""
        self.lifecycle.port_link_up(port)

    def fault_link_dead(self, port: int) -> bool:
        """A permanent failure kills both of ``port``'s links."""
        return self.lifecycle.port_link_dead(port)

    # scheduler-plane faults only apply to schemes that attached a scheduler
    # to the lifecycle manager; otherwise the injector counts the skip

    def fault_slot_stuck(self, slot: int) -> bool:
        if self.lifecycle.scheduler is None:
            return False
        return self.lifecycle.slot_stuck(slot)

    def fault_slot_corrupt(self, slot: int) -> bool:
        if self.lifecycle.scheduler is None:
            return False
        return self.lifecycle.slot_corrupt(slot)

    def fault_slot_quarantine(self, slot: int) -> None:
        """Detection follow-up for a stuck slot (no-op without a scheduler)."""
        if self.lifecycle.scheduler is not None:
            self.lifecycle.slot_quarantine(slot)

    def fault_request_drop(self, u: int, v: int) -> bool:
        if self.lifecycle.scheduler is None:
            return False
        return self.lifecycle.request_drop(u, v)

    def fault_sl_dead(self, u: int, v: int) -> bool:
        if self.lifecycle.scheduler is None:
            return False
        return self.lifecycle.sl_dead(u, v)

    # scheme-specific reactions to link state changes

    def _on_link_down(self, port: int) -> None:
        """A transient outage: open recovery windows for affected traffic.

        Every connection with bytes queued from or to ``port`` is marked
        disrupted.  Schemes that queue elsewhere than in the VOQs override
        this.
        """
        inj = self.fault_injector
        assert inj is not None
        for v in np.nonzero(self.queue_bytes[port] > 0)[0].tolist():
            inj.note_disrupted(port, v)
        for u in np.nonzero(self.queue_bytes[:, port] > 0)[0].tolist():
            if u != port:
                inj.note_disrupted(u, port)

    def _on_link_up(self, port: int) -> None:
        """React to a transient outage ending (override per scheme)."""

    def _on_link_dead(self, port: int) -> None:
        """React to a permanent port death (override per scheme)."""

    # trunk (inter-switch) link state changes; only multi-switch schemes
    # have trunks, so the defaults are no-ops

    def _on_trunk_down(self, link: int) -> None:
        """React to a trunk link's transient outage starting."""

    def _on_trunk_up(self, link: int) -> None:
        """React to a trunk link's transient outage ending."""

    def _on_trunk_dead(self, link: int) -> None:
        """React to a trunk link dying permanently."""

    def _fault_phase_reset(self) -> None:
        """Cancel per-phase recovery state at the phase barrier."""
        self.lifecycle.phase_reset()

    @property
    def phase_done(self) -> bool:
        return self._phase_remaining == 0
