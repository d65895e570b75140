"""The deterministic service core: admission -> scheduler -> lease -> release.

:class:`SwitchService` administers one :class:`~repro.service.fabric.LiveFabric`
entirely in virtual time on the repo's event kernel, so every campaign is
a pure function of (config, workload, fault schedule, seed).  The asyncio
daemon (:mod:`repro.service.daemon`) and the soak harness
(:mod:`repro.service.soak`) both drive this same core; neither adds any
behaviour of its own.

One request's life::

    submit ──dead endpoint──────────────► REJECTED_DEAD
       │ ───no token───────────────────► SHED_THROTTLE
       │ ───queue full─────────────────► SHED_QUEUE_FULL
       │ (BEST_EFFORT rung: immediate management placement or
       │  SHED_BEST_EFFORT, no queueing)
       ▼
    queued ──request wire──► scheduler r_view bit high
       │                        │ SL pass establishes ──grant wire──┐
       │ watchdog: retry ×N,    ▼                                   ▼
       │ mgmt remap ×M ──────► GRANTED ──hold──► release ──► teardown
       ▼
    SHED_TIMEOUT (retry budget exhausted: the no-deadlock bound)

The watchdog ladder is the :class:`~repro.networks.lifecycle.ConnectionManager`'s
— the service implements the :class:`~repro.networks.lifecycle.LifecycleClient`
policy surface, so fault recovery *and* overload starvation share one
bounded state machine: a request can wait at most the retry policy's
total backoff before it is granted or shed, which is what makes a drain
provably finite (asserted by :mod:`repro.service.invariants`).
"""

from __future__ import annotations

from ..errors import ConfigurationError
from ..faults.injector import FaultInjector
from ..faults.schedule import FaultSchedule
from ..networks.base import MAX_EVENTS_PER_PHASE
from ..networks.lifecycle import LifecycleClient
from ..obs.events import Kind
from ..params import SystemParams
from ..sim.engine import Priority
from ..sim.trace import Tracer
from .admission import PortQueues, TokenBucket
from .fabric import LiveFabric
from .ladder import OverloadLadder, ServiceLevel
from .model import Outcome, ServiceConfig, ServiceRequest
from .slo import SloRecorder
from .workload import Arrival

__all__ = ["SwitchService"]

Pair = tuple[int, int]


class SwitchService(LifecycleClient):
    """Admission control + lease lifecycle over one live fabric."""

    def __init__(
        self,
        cfg: ServiceConfig,
        params: SystemParams,
        *,
        tracer: Tracer | None = None,
        faults: FaultInjector | None = None,
        predicted: tuple[Pair, ...] = (),
        strict: bool | None = None,
    ) -> None:
        if faults is None:
            # the lifecycle watchdogs need an injector for their retry
            # policy even when the campaign injects nothing
            faults = FaultInjector(FaultSchedule(()), retry=cfg.retry)
        self.cfg = cfg
        self.fabric = LiveFabric(cfg, params, tracer=tracer, faults=faults, strict=strict)
        self.params = params
        self.sim = self.fabric.sim
        self.tracer = self.fabric.tracer
        self.lifecycle = self.fabric.lifecycle
        self.bucket = TokenBucket(cfg.bucket_rate_per_s, cfg.bucket_burst)
        self.queues = PortQueues(params.n_ports, cfg.queue_depth)
        self.ladder = OverloadLadder(cfg)
        self.slo = SloRecorder(cfg.window_ps)
        #: every request ever submitted, in submission order
        self.requests: list[ServiceRequest] = []
        #: queued requests awaiting a circuit, keyed by connection pair
        self.pending: dict[Pair, list[ServiceRequest]] = {}
        #: granted-and-held lease refcounts per connection pair
        self.leases: dict[Pair, int] = {}
        #: leases written off (port death / unrecoverable circuit loss)
        self.broken_leases = 0
        #: grants satisfied by a resident (preloaded or shared) circuit
        self.resident_hits = 0
        #: grants placed directly by the management plane (BEST_EFFORT rung)
        self.best_effort_grants = 0
        self._next_id = 0
        self._sl_armed = False
        self._applied_level = ServiceLevel.NORMAL
        self.fabric.attach(self)
        if predicted:
            self.fabric.preload_pairs(predicted)

    # -- the front door ---------------------------------------------------------------

    def submit(self, src: int, dst: int, hold_ps: int) -> ServiceRequest:
        """One lease request arrives *now* (an event on the virtual clock)."""
        n = self.params.n_ports
        if not (0 <= src < n and 0 <= dst < n) or src == dst:
            raise ConfigurationError(f"bad connection ({src} -> {dst}) for {n} ports")
        if hold_ps <= 0:
            raise ConfigurationError(f"lease hold must be positive, got {hold_ps}")
        now = self.sim.now
        req = ServiceRequest(
            req_id=self._next_id, src=src, dst=dst, arrive_ps=now, hold_ps=hold_ps
        )
        self._next_id += 1
        self.requests.append(req)
        self.slo.note_arrival()
        if self.tracer.enabled:
            self.tracer.record(now, Kind.SVC_SUBMIT, req=req.req_id, src=src, dst=dst)
        dead = self.lifecycle.link_dead
        if dead[src] or dead[dst]:
            self._finish(req, Outcome.REJECTED_DEAD)
            return req
        if not self.bucket.try_take(now):
            self._finish(req, Outcome.SHED_THROTTLE)
            return req
        if self.ladder.level == ServiceLevel.BEST_EFFORT:
            self._best_effort(req)
            return req
        if not self.queues.try_enqueue(src):
            self._finish(req, Outcome.SHED_QUEUE_FULL)
            return req
        self.pending.setdefault(req.pair, []).append(req)
        self.sim.schedule(
            self.params.request_wire_ps,
            self._request_seen,
            req.pair,
            priority=Priority.WIRE,
        )
        return req

    def _best_effort(self, req: ServiceRequest) -> None:
        """BEST_EFFORT rung: place immediately or shed on the spot."""
        u, v = req.pair
        if self.fabric.established(u, v) or self.fabric.mgmt_place(u, v) is not None:
            self.fabric.raise_request(u, v)  # keep the SL from reclaiming it
            self.best_effort_grants += 1
            self._grant(req, self.sim.now)
            self._ensure_sl_tick()
        else:
            self._finish(req, Outcome.SHED_BEST_EFFORT)

    # -- request plane ------------------------------------------------------------------

    def _request_seen(self, pair: Pair) -> None:
        """The request wire delivered the pair's request edge to the scheduler."""
        if not self.pending.get(pair):
            return  # resolved (or rejected) while the edge was in flight
        u, v = pair
        self.fabric.raise_request(u, v)
        if self.fabric.established(u, v):
            # resident circuit (preload hit, or an active lease's): share it
            self.resident_hits += 1
            self._grant_pair(pair)
            return
        self.lifecycle.arm(u, v)
        self._ensure_sl_tick()

    def _ensure_sl_tick(self) -> None:
        if not self._sl_armed:
            self._sl_armed = True
            self.sim.schedule(
                self.params.scheduler_pass_ps, self._sl_tick, priority=Priority.SCHEDULER
            )

    def _sl_tick(self) -> None:
        """One SL clock period; runs while any request or lease is live."""
        self._sl_armed = False
        for toggle in self.fabric.sl_pass():
            pair = (toggle.u, toggle.v)
            if toggle.establish:
                self.sim.schedule(
                    self.params.grant_wire_ps,
                    self._grant_pair,
                    pair,
                    priority=Priority.WIRE,
                )
            elif self.leases.get(pair):
                # the scheduler reclaimed a leased circuit (its request bit
                # was lost to a fault): that lease is disrupted
                self._lease_disrupted(pair)
        if self.pending or self.leases:
            self._ensure_sl_tick()

    def _lease_disrupted(self, pair: Pair) -> None:
        u, v = pair
        injector = self.fabric.fault_injector
        assert injector is not None
        injector.note_disrupted(u, v)
        self.fabric.raise_request(u, v)
        self.lifecycle.arm(u, v)

    # -- grants --------------------------------------------------------------------------

    def _grant_pair(self, pair: Pair) -> None:
        """A circuit for ``pair`` is up (SL grant wire, or direct placement)."""
        u, v = pair
        injector = self.fabric.fault_injector
        self.lifecycle.disarm(pair)
        reqs = self.pending.pop(pair, None)
        if not reqs:
            if self.leases.get(pair):
                # a disrupted lease's circuit came back — recovery closed
                if injector is not None:
                    injector.note_progress(u, v)
            elif self.fabric.established(u, v):
                # granted, but every waiter gave up first: return the slot
                self.fabric.drop_request(u, v)
                self.fabric.teardown(u, v)
            return
        if not self.fabric.established(u, v):
            # the circuit vanished between grant and wire delivery (fault
            # strike in the window): go back to waiting
            self.pending[pair] = reqs
            self.fabric.raise_request(u, v)
            self.lifecycle.arm(u, v)
            self._ensure_sl_tick()
            return
        now = self.sim.now
        for req in reqs:
            self.queues.dequeue(req.src)
            self._grant(req, now)
        if injector is not None:
            injector.note_progress(u, v)

    def _grant(self, req: ServiceRequest, now: int) -> None:
        req.outcome = Outcome.GRANTED
        req.grant_ps = now
        self.leases[req.pair] = self.leases.get(req.pair, 0) + 1
        self.slo.note_grant(req.latency_ps)
        if self.tracer.enabled:
            self.tracer.record(
                now,
                Kind.SVC_GRANT,
                req=req.req_id,
                src=req.src,
                dst=req.dst,
                latency_ps=req.latency_ps,
            )
        self.sim.schedule(req.hold_ps, self._release, req, priority=Priority.NIC)

    # -- releases ------------------------------------------------------------------------

    def _release(self, req: ServiceRequest) -> None:
        """A lease's hold expired: release the circuit (refcounted per pair)."""
        if req.released or req.outcome is not Outcome.GRANTED:
            return
        req.released = True
        self.slo.note_release()
        if self.tracer.enabled:
            self.tracer.record(
                self.sim.now, Kind.SVC_RELEASE, req=req.req_id, src=req.src, dst=req.dst
            )
        pair = req.pair
        count = self.leases.get(pair, 0)
        if count == 0:
            return  # the lease was already written off (port death etc.)
        if count > 1:
            self.leases[pair] = count - 1
            return
        del self.leases[pair]
        if not self.pending.get(pair):
            self.fabric.drop_request(*pair)
            self.fabric.teardown(*pair)

    # -- the LifecycleClient policy surface ----------------------------------------------
    #
    # ConnectionManager drives retries, management escalation, and give-up
    # through these; the service's answers make overload starvation and
    # fault recovery share the same bounded watchdog ladder.

    def lifecycle_watch_resolved(self, u: int, v: int, seq: int | None) -> bool:
        pair = (u, v)
        if self.pending.get(pair):
            return False
        if self.leases.get(pair) and not self.fabric.established(u, v):
            return False
        return True

    def lifecycle_awaiting_grant(self, u: int, v: int) -> bool:
        pair = (u, v)
        if self.pending.get(pair):
            return True
        return bool(self.leases.get(pair)) and not self.fabric.established(u, v)

    def lifecycle_retry(self, u: int, v: int) -> None:
        self.sim.schedule(
            self.params.request_wire_ps, self._retry_seen, (u, v), priority=Priority.WIRE
        )

    def _retry_seen(self, pair: Pair) -> None:
        if self.pending.get(pair) or self.leases.get(pair):
            self.fabric.raise_request(*pair)
            self._ensure_sl_tick()

    def lifecycle_mgmt_remap(self, u: int, v: int) -> bool:
        slot = self.fabric.mgmt_place(u, v)
        if slot is None:
            return False
        self.fabric.raise_request(u, v)
        self.sim.schedule(
            self.params.grant_wire_ps, self._grant_pair, (u, v), priority=Priority.WIRE
        )
        return True

    def lifecycle_give_up(self, u: int, v: int) -> None:
        """Retry budget exhausted: shed the waiters, write off broken leases."""
        pair = (u, v)
        for req in self.pending.pop(pair, ()):  # type: ignore[arg-type]
            self.queues.dequeue(req.src)
            self._finish(req, Outcome.SHED_TIMEOUT)
        broken = self.leases.pop(pair, 0)
        self.broken_leases += broken
        self.fabric.drop_request(u, v)
        self.fabric.teardown(u, v)

    def lifecycle_pinned_lost(self) -> None:
        now = self.sim.now
        if self.ladder.note_pinned_lost(now):
            self.fabric.degrade_preload()
        self._apply_level("pinned-slot-lost")

    # -- link-state reactions (forwarded by LiveFabric) ----------------------------------

    def on_port_dead(self, port: int) -> None:
        """A port died for good: its queued and leased work cannot survive."""
        for pair in [p for p in self.pending if port in p]:
            for req in self.pending.pop(pair):
                self.queues.dequeue(req.src)
                self._finish(req, Outcome.REJECTED_DEAD)
            self.fabric.drop_request(*pair)
        for pair in [p for p in self.leases if port in p]:
            self.broken_leases += self.leases.pop(pair)
            self.fabric.drop_request(*pair)
            self.fabric.teardown(*pair)

    def on_port_down(self, port: int) -> None:
        """Transient outage: leases ride it out; the watchdogs cover stalls."""

    def on_port_up(self, port: int) -> None:
        """Transient outage over; nothing to rebuild."""

    # -- outcomes and the overload ladder ------------------------------------------------

    def _finish(self, req: ServiceRequest, outcome: Outcome) -> None:
        req.outcome = outcome
        now = self.sim.now
        if outcome is Outcome.REJECTED_DEAD:
            self.slo.note_reject_dead()
            if self.tracer.enabled:
                self.tracer.record(
                    now, Kind.SVC_REJECT, req=req.req_id, src=req.src, dst=req.dst
                )
        else:
            self.slo.note_shed(outcome)
            if self.tracer.enabled:
                self.tracer.record(
                    now,
                    Kind.SVC_SHED,
                    req=req.req_id,
                    src=req.src,
                    dst=req.dst,
                    reason=outcome.value,
                )

    def _apply_level(self, reason: str) -> None:
        level = self.ladder.level
        if level == self._applied_level:
            return
        self._applied_level = level
        self.bucket.set_rate(self.sim.now, self.ladder.bucket_rate(self.cfg.bucket_rate_per_s))
        if self.tracer.enabled:
            self.tracer.record(self.sim.now, Kind.SVC_LEVEL, level=level.name, reason=reason)

    def _window_tick(self) -> None:
        now = self.sim.now
        pressure = self.slo.window_pressure_rate
        snap = self.slo.close_window(
            now,
            self.ladder.level.name,
            queued=self.queues.total,
            fabric=self.fabric.counters(),
        )
        if self.tracer.enabled:
            self.tracer.record(
                now,
                Kind.SVC_SNAPSHOT,
                level=snap.level,
                granted=snap.granted,
                shed=snap.shed,
                p99_grant_ps=snap.p99_grant_ps,
            )
        old = self.ladder.level
        new = self.ladder.evaluate(now, pressure)
        if new != old:
            if new >= ServiceLevel.DEGRADED and not self.ladder.preload_degraded:
                # the DEGRADED rung *is* the preload -> dynamic fallback
                self.ladder.preload_degraded = True
                self.fabric.degrade_preload()
            self._apply_level(f"pressure {pressure:.3f}")
        if self.fabric.strict:
            self.fabric.scheduler.registers.check_invariants()
        if self.sim.pending > 0:
            self.sim.schedule(self.cfg.window_ps, self._window_tick, priority=Priority.MONITOR)

    # -- campaigns -----------------------------------------------------------------------

    def run_campaign(
        self, arrivals: tuple[Arrival, ...] | list[Arrival], *, max_wall_s: float | None = None
    ) -> None:
        """Replay a materialised workload to completion (fully drained).

        Every arrival becomes a :meth:`submit` event; the run ends when the
        event heap empties, which the watchdog retry budget guarantees is
        finite.  SLO windows close on the virtual clock throughout; a final
        partial window is sealed after the drain.
        """
        for a in arrivals:
            self.sim.schedule_at(
                a.time_ps, self.submit, a.src, a.dst, a.hold_ps, priority=Priority.NIC
            )
        self.sim.schedule(self.cfg.window_ps, self._window_tick, priority=Priority.MONITOR)
        self.sim.run(max_events=MAX_EVENTS_PER_PHASE, max_wall_s=max_wall_s)
        if self.slo.window_dirty:
            self.slo.close_window(
                self.sim.now,
                self.ladder.level.name,
                queued=self.queues.total,
                fabric=self.fabric.counters(),
            )

    # -- introspection -------------------------------------------------------------------

    def stats(self) -> dict:
        """A point-in-time summary (the daemon's ``stats`` op)."""
        p50, p99 = self.slo.latency_percentiles()
        return {
            "t_ps": self.sim.now,
            "level": self.ladder.level.name,
            "arrivals": self.slo.arrivals,
            "granted": self.slo.granted,
            "shed": self.slo.shed,
            "rejected_dead": self.slo.rejected_dead,
            "released": self.slo.released,
            "availability": round(self.slo.availability, 6),
            "shed_rate": round(self.slo.shed_rate, 6),
            "p50_grant_ps": p50,
            "p99_grant_ps": p99,
            "queued": self.queues.total,
            "active_leases": sum(self.leases.values()),
            "broken_leases": self.broken_leases,
            "resident_hits": self.resident_hits,
            "best_effort_grants": self.best_effort_grants,
            "shed_by_outcome": {
                k: self.slo.shed_by_outcome[k] for k in sorted(self.slo.shed_by_outcome)
            },
            "fabric": self.fabric.counters(),
        }
