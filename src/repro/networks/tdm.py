"""The predictive multiplexed switching network — the paper's system.

One :class:`TdmNetwork` simulates the full Figure-1 plant:

* N NICs with virtual output queues raising request lines;
* the scheduler (Figure 2): K configuration registers, the SL array run
  every ``scheduler_pass_ps`` (one pass schedules one slot), request
  latches driven by a :class:`~repro.predict.base.Predictor`;
* the TDM slot clock: every ``slot_ps`` the TDM counter advances to the
  next non-empty configuration, the crossbar is reconfigured, and every
  granted connection moves up to ``slot_bytes`` over its pipe;
* optional **compiled communication**: per phase, the statically-known
  connection set is compiled (bipartite edge colouring) into a
  :class:`~repro.compiled.directives.PreloadProgram` whose batches occupy
  ``k_preload`` pinned registers; batches advance as their traffic drains.

Three operating modes reproduce the paper's configurations:

=============  ============  =========================================
mode           k_preload     corresponds to
=============  ============  =========================================
``dynamic``    0             Figure 4 "Dynamic TDM" (degree ``k``)
``preload``    k             Figure 4 "Preload"
``hybrid``     1 .. k-1      Figure 5 "k-preload / (K-k)-dynamic"
=============  ============  =========================================

Request and grant wires carry their physical delays: a queue-state change
reaches the scheduler ``request_wire_ps`` later, and transfers happen in
the slot after the configuration is actually loaded — the overheads whose
amortisation is the point of the paper.
"""

from __future__ import annotations

import numpy as np

from ..compiled.coloring import decompose
from ..compiled.directives import PreloadProgram
from ..compiled.patterns import StaticPattern
from ..errors import ConfigurationError, SchedulingError
from ..faults.injector import FaultInjector
from ..fabric.config import ConfigMatrix
from ..fabric.crossbar import Crossbar
from ..fabric.timing import FabricTiming
from ..params import SystemParams
from ..predict.base import NullPredictor, Predictor
from ..predict.markov import MarkovPrefetcher
from ..sched.constrained import ConstrainedScheduler, FabricConstraint
from ..sched.multislot import QueueDepthBoostPolicy
from ..sched.multiunit import MultiUnitScheduler
from ..sched.priority import RotationPolicy, RoundRobinPriority
from ..sched.scheduler import Scheduler
from ..sched.solstice import solstice_schedule
from ..sim.engine import Priority
from ..sim.fastpath import FastPath
from ..sim.trace import Tracer
from ..topo import Topology
from ..traffic.base import TrafficPhase
from ..types import Connection, Message
from .base import BaseNetwork
from .lifecycle import LifecycleClient

__all__ = ["TdmNetwork"]

_MODES = ("dynamic", "preload", "hybrid")


class TdmNetwork(BaseNetwork, LifecycleClient):
    """TDM multiplexed switching with dynamic, preloaded, or hybrid control."""

    def __init__(
        self,
        params: SystemParams,
        k: int = 4,
        mode: str = "dynamic",
        k_preload: int | None = None,
        predictor: Predictor | None = None,
        rotation: RotationPolicy | None = None,
        tracer: Tracer | None = None,
        flush_on_phase: bool = False,
        n_sl_units: int = 1,
        multislot_threshold_bytes: int | None = None,
        injection_window: int | None = None,
        skip_idle_slots: bool = True,
        prefetcher: MarkovPrefetcher | None = None,
        fabric_constraint: FabricConstraint | None = None,
        schedule_computer: str = "coloring",
        coloring: str = "kempe",
        faults: FaultInjector | None = None,
        strict: bool | None = None,
        max_wall_s: float | None = None,
        topology: Topology | None = None,
    ) -> None:
        super().__init__(
            params,
            tracer,
            faults=faults,
            strict=strict,
            max_wall_s=max_wall_s,
            topology=topology,
        )
        if not self.topology.is_single_switch:
            raise ConfigurationError(
                f"TdmNetwork models one crossbar; topology "
                f"{self.topology.name!r} has {self.topology.n_switches} "
                f"switches (use the mesh-tdm / fattree-tdm schemes)"
            )
        if mode not in _MODES:
            raise ConfigurationError(f"mode must be one of {_MODES}, got {mode!r}")
        if k < 1:
            raise ConfigurationError("multiplexing degree must be >= 1")
        if mode == "dynamic":
            k_preload = 0
        elif mode == "preload":
            k_preload = k if k_preload is None else k_preload
        elif k_preload is None or not 0 < k_preload < k:
            raise ConfigurationError(
                f"hybrid mode needs 0 < k_preload < k, got {k_preload}"
            )
        if mode == "preload" and k_preload != k:
            raise ConfigurationError("preload mode pins all k slots")
        self.k = k
        self.mode = mode
        self.k_preload = int(k_preload)
        self.predictor_template = predictor
        self.rotation_template = rotation
        self.flush_on_phase = flush_on_phase
        self.n_sl_units = n_sl_units
        self.multislot_threshold_bytes = multislot_threshold_bytes
        if injection_window is not None and injection_window < 1:
            raise ConfigurationError("injection window must be >= 1")
        #: max outstanding (queued, not fully transmitted) messages per NIC.
        #: The paper's processors are sequential command-file generators with
        #: a bounded number of in-flight non-blocking sends; None models
        #: NICs deep enough to expose the whole phase at once.
        self.injection_window = injection_window
        #: generalise the TDM counter's empty-configuration skipping to
        #: configurations with no pending requests (B(t) AND R == 0); the
        #: scheduler holds both matrices, so the AND is free in hardware
        self.skip_idle_slots = skip_idle_slots
        #: optional next-connection prefetcher (Section 3.2's proactive
        #: establishment, realised through the extension-3 request latches)
        self.prefetcher = prefetcher
        #: optional non-crossbar fabric predicate (Omega, fat-tree, ...);
        #: switches the scheduler to the constraint-checked generalisation
        self.fabric_constraint = fabric_constraint
        if fabric_constraint is not None and n_sl_units > 1:
            raise ConfigurationError(
                "fabric constraints and multiple SL units are mutually exclusive"
            )
        if schedule_computer not in ("coloring", "solstice"):
            raise ConfigurationError(
                f"schedule_computer must be 'coloring' or 'solstice', "
                f"got {schedule_computer!r}"
            )
        if coloring not in ("kempe", "packed"):
            raise ConfigurationError(
                f"coloring must be 'kempe' or 'packed', got {coloring!r}"
            )
        #: how the preload compiler turns a phase's static connections into
        #: configurations: the paper's edge colouring, or the Solstice-style
        #: demand-ranked extraction (sched/solstice.py)
        self.schedule_computer = schedule_computer
        #: decomposition flavour for the colouring computer: "kempe" is the
        #: paper's exact-Δ frame, "packed" the demand-weighted variant
        self.coloring = coloring
        self.scheme = f"tdm-{mode}"
        # per-run state
        self._fastpath: FastPath | None = None
        self.scheduler: Scheduler | None = None
        self.predictor: Predictor = NullPredictor()
        self.crossbar: Crossbar | None = None
        self.boost_policy: QueueDepthBoostPolicy | None = None
        self._program: PreloadProgram | None = None
        self._batch_idx = 0
        self._batch_conns: set[Connection] = set()
        self._batch_remaining = 0
        self._batch_loading = False
        self._program_gen = 0
        self._slot_transfers = 0
        self._slot_opportunities = 0

    # -- run scaffolding -----------------------------------------------------------

    def _reset_scheme_state(self) -> None:
        n = self.params.n_ports
        rotation = self.rotation_template or RoundRobinPriority(n)
        rotation.reset()
        if self.fabric_constraint is not None:
            self.scheduler = ConstrainedScheduler(
                self.params, self.k, self.fabric_constraint, rotation
            )
        elif self.n_sl_units > 1:
            self.scheduler = MultiUnitScheduler(
                self.params, self.k, self.n_sl_units, rotation
            )
        else:
            self.scheduler = Scheduler(self.params, self.k, rotation)
        self._wire_scheduler(self.scheduler)
        self.predictor = self.predictor_template or NullPredictor()
        self.crossbar = Crossbar(self.params, FabricTiming.lvds(self.params))
        if self.multislot_threshold_bytes is not None:
            self.boost_policy = QueueDepthBoostPolicy(
                self.scheduler, self.multislot_threshold_bytes, max_slots=2
            )
        else:
            self.boost_policy = None
        self._program = None
        self._batch_idx = 0
        self._batch_conns = set()
        self._batch_remaining = 0
        self._batch_loading = False
        self._slot_transfers = 0
        self._slot_opportunities = 0
        # fault recovery (watchdogs, retries, give-up) is driven by the
        # lifecycle layer through the lifecycle_* callbacks below
        self._degraded = False
        self.lifecycle.attach_scheduler(self.scheduler, client=self)
        # the data plane; it arms its windows per run, after the fault and
        # scheduler state above is known (_faults_active is set by run())
        self._fastpath = FastPath(self)

    def _inject(self, phase: TrafficPhase) -> None:
        """Inject a phase, honouring the per-NIC injection window.

        With a window of W, each NIC holds at most W outstanding messages
        in its VOQs; the rest wait in the NIC's sequential script and enter
        as earlier messages finish transmitting — the behaviour of the
        paper's command-file packet generators with bounded non-blocking
        sends.
        """
        super()._inject(phase)
        if self.injection_window is not None:
            for u in range(self.params.n_ports):
                for _ in range(self.injection_window):
                    self._feed_nic(u, initial=True)

    def _arrive(self, msg: Message, now: int) -> None:
        """Windowed: an admitted message joins its NIC's script at phase
        start; the VOQ drain holds it back until its injection time."""
        if self.injection_window is None:
            super()._arrive(msg, now)
        elif self._admit(msg):
            self.nics[msg.src].script.append(msg)

    def _feed_nic(self, u: int, initial: bool = False) -> None:
        """Move the next scripted message of NIC ``u`` into its VOQs."""
        nic = self.nics[u]
        if not nic.script:
            return
        msg = nic.script.popleft()
        nic.enqueue(msg)
        if not initial:
            # a fresh request edge travels to the scheduler
            self._request_wire(self._request_rise, u, msg.dst)

    def _request_rise(self, u: int, v: int) -> None:
        sched = self.scheduler
        assert sched is not None
        if self.nics[u].voqs.bytes_pending[v] > 0:
            self._set_request_line(sched, u, v, True)
            if self._faults_active and not sched.established_anywhere(u, v):
                self.lifecycle.arm(u, v)

    def _accept(self, msg: Message, at_phase_start: bool) -> None:
        """A message arrives mid-phase: raise its request after the wire."""
        super()._accept(msg, at_phase_start)
        if not at_phase_start:
            self._request_wire(self._request_rise, msg.src, msg.dst)

    def _execute_phase(self, phase: TrafficPhase) -> None:
        sched = self.scheduler
        assert sched is not None
        if self.flush_on_phase and self.sim.now > 0:
            sched.flush()
            self.predictor.on_flush(self.sim.now)

        if self.k_preload > 0 and not self._degraded:
            self._compile_phase_program(phase)
        elif not self._degraded:
            self._program = None

        # the request wires settle request_wire_ps after injection
        self._request_wire(self._sync_requests)
        self._start_clocks(self._sl_tick, self._slot_tick)
        self._run_event_loop()

    def _collect_counters(self) -> dict[str, int]:
        out = super()._collect_counters()
        if self.scheduler is not None:
            out.update(self.scheduler.counters.as_dict())
            out["tdm_advances"] = self.scheduler.tdm.advances
            out["tdm_idle_ticks"] = self.scheduler.tdm.idle_ticks
        out["slot_transfers"] = self._slot_transfers
        if self.crossbar is not None:
            out["fabric_reconfigurations"] = self.crossbar.reconfigurations
        out["slot_opportunities"] = self._slot_opportunities
        out.update({f"predictor_{k}": v for k, v in self.predictor.stats().items()})
        if self.prefetcher is not None:
            out.update(
                {f"prefetch_{k}": v for k, v in self.prefetcher.stats().items()}
            )
        if self._program is not None:
            out["preload_batches"] = self._program.n_batches
        return out

    # -- compiled communication ------------------------------------------------------

    def _compile_phase_program(self, phase: TrafficPhase) -> None:
        """Compile the phase's static connections into a preload program.

        When the pattern supplies a program-order preload schedule (the
        compiler knows the send order), its configurations are batched as
        given; otherwise the generic edge-colouring compiler runs on the
        phase's static connection set.

        Each compilation starts a new program *generation*; batch-load
        events scheduled under an older generation (a previous phase) are
        ignored when they fire.
        """
        self._program_gen += 1
        if phase.preload_configs:
            configs = list(phase.preload_configs)
        else:
            static = StaticPattern(self.params.n_ports, phase.static_conns)
            if len(static) == 0:
                if self.mode == "preload" and phase.messages:
                    raise SchedulingError(
                        f"pure preload mode cannot serve phase {phase.name!r}: "
                        f"{len(phase.messages)} messages but no static "
                        "communication information; use hybrid or dynamic mode"
                    )
                # a phase with nothing to preload: hand any previously pinned
                # registers back to the dynamic scheduler
                self._program = None
                self._batch_conns = set()
                self._batch_remaining = 0
                regs = self.scheduler.registers
                for slot in list(regs.pinned):
                    regs.clear_slot(slot)
                return
            configs = self._compute_schedule(static, phase)
        k = self.k_preload
        self._program = PreloadProgram(
            n=self.params.n_ports,
            k_preload=k,
            batches=[configs[i : i + k] for i in range(0, len(configs), k)],
        )
        self._batch_idx = 0
        self._load_batch(self._batch_idx, self._program_gen)
        if self.mode == "preload" and (dynamic := phase.dynamic_conns()):
            raise SchedulingError(
                f"pure preload mode cannot serve statically-unknown traffic "
                f"in phase {phase.name!r}: {len(dynamic)} dynamic connections "
                f"(e.g. {sorted(dynamic)[0]}); use hybrid mode"
            )

    def _static_demand(self, phase: TrafficPhase) -> dict[tuple[int, int], int]:
        """Bytes offered per statically-known connection of the phase."""
        demand: dict[tuple[int, int], int] = {
            (u, v): 0 for u, v in phase.static_conns
        }
        for msg in phase.messages:
            key = (msg.src, msg.dst)
            if key in demand:
                demand[key] += msg.size
        return demand

    def _compute_schedule(
        self, static: StaticPattern, phase: TrafficPhase
    ) -> list[ConfigMatrix]:
        """Run the configured schedule computer over the static working set.

        Returns the ordered configurations; the default is the paper's
        exact-Δ Kempe colouring, compiled by the pattern itself.
        """
        if self.schedule_computer == "solstice":
            demand = self._static_demand(phase)
            return [cfg for cfg, _ in solstice_schedule(demand, self.params.n_ports)]
        if self.coloring != "kempe":
            demand = self._static_demand(phase)
            return decompose(
                static.conns,
                self.params.n_ports,
                coloring=self.coloring,
                demand=demand,
            )
        return static.compile()

    def _load_batch(self, index: int, generation: int) -> None:
        """Load batch ``index`` into the pinned registers."""
        if generation != self._program_gen:
            return  # stale directive from a previous phase's program
        assert self._program is not None and self.scheduler is not None
        batch = self._program.batches[index]
        regs = self.scheduler.registers
        for s in range(self.k_preload):
            if s < len(batch):
                regs.load(s, batch[s], pin=True)
            else:
                # trailing registers of a short batch fall back to dynamic use
                regs.clear_slot(s)
        prev_conns = self._batch_conns
        self._batch_conns = self._program.batch_connections(index)
        if self.tracer.enabled:
            now = self.sim.now
            for u, v in sorted(prev_conns - self._batch_conns):
                self.tracer.record(now, "conn-release", src=u, dst=v, via="preload")
            for u, v in sorted(self._batch_conns - prev_conns):
                self.tracer.record(now, "conn-establish", src=u, dst=v, via="preload")
        ready = self.sim.now + self.params.grant_wire_ps
        for u, v in self._batch_conns:
            self.conn_ready[u, v] = max(self.conn_ready[u, v], ready)
        # bytes still to transmit on this batch's connections: offered minus
        # sent covers queued, scripted (windowed), and future-injected alike
        # (earlier phases are fully sent by the phase barrier); bytes already
        # dropped under faults will never be transmitted either
        self._batch_remaining = int(
            sum(
                self.ledger.offered[u, v]
                - self.ledger.sent[u, v]
                - self.ledger.dropped[u, v]
                for u, v in self._batch_conns
            )
        )
        self._batch_loading = False
        self.scheduler.counters.inc("preloads", len(batch))
        self.tracer.record(
            self.sim.now, "preload-batch", index=index, conns=len(self._batch_conns)
        )
        if self._batch_remaining == 0:
            self._maybe_advance_batch()

    def _maybe_advance_batch(self) -> None:
        """Advance to the next batch once the current one has drained."""
        if (
            self._program is None
            or self._batch_loading
            or self._batch_remaining > 0
            or self._batch_idx + 1 >= self._program.n_batches
        ):
            return
        self._batch_idx += 1
        self._batch_loading = True
        # the compiler directive takes one scheduler pass to take effect
        self.sim.schedule(
            self.params.scheduler_pass_ps,
            self._load_batch,
            self._batch_idx,
            self._program_gen,
            priority=Priority.SCHEDULER,
        )

    # -- request plane ----------------------------------------------------------------

    def _sync_requests(self) -> None:
        """Full refresh of the scheduler's request view (phase injection)."""
        sched = self.scheduler
        assert sched is not None
        sched.set_requests(self.queue_bytes > 0)
        if self._faults_active:
            # blanket watchdog coverage: every pending connection gets a
            # NIC-side timeout so no fault can stall the phase unnoticed
            for u, row in enumerate(sched.r_view):
                for v in np.nonzero(row)[0].tolist():
                    if not sched.established_anywhere(u, v):
                        self.lifecycle.arm(u, v)

    def _request_drop(self, u: int, v: int, hold: bool) -> None:
        """A queue-empty edge arrived at the scheduler."""
        sched = self.scheduler
        assert sched is not None
        if self.nics[u].voqs.bytes_pending[v] > 0:
            # a new phase refilled the queue while the drop was in flight
            sched.set_request(u, v, True)
            return
        self._set_request_line(sched, u, v, False)
        sched.latch(u, v, hold)

    # -- the TDM slot clock ---------------------------------------------------------------

    def _slot_tick(self) -> None:
        fp = self._fastpath
        sched = self.scheduler
        assert fp is not None and sched is not None
        t = self.sim.now
        pending = sched.r_view if self.skip_idle_slots else None
        slot = sched.tdm.advance(pending)
        if slot is not None:
            assert self.crossbar is not None
            self.crossbar.apply(sched.registers[slot])
            self._transfer_slot(slot, t)
            self._maybe_advance_batch()
        self._rearm_slot_clock(self._slot_tick)
        if fp.armed:
            # with both clocks re-armed the window precomputation can see
            # the full heap; opening is refused unless provably safe
            fp.maybe_open_window()

    def _transfer_slot(self, slot: int, t: int) -> None:
        """Move data over every granted connection of one slot.

        :meth:`FastPath.transfer_slot` selects, drains and posts the
        connections to the ledger; this applies the network's reactions to
        what moved, connection by connection in input-port order.
        """
        sched = self.scheduler
        assert sched is not None and self._fastpath is not None
        assert self.crossbar is not None
        cfg = sched.registers[slot]
        self._slot_opportunities += len(cfg)
        faults_active = self._faults_active
        moves = self._fastpath.transfer_slot(
            cfg, t, self.conn_ready, self._link_down if faults_active else None
        )
        tracer = self.tracer
        trace = tracer.enabled
        fill_ps = self.crossbar.path_latency_ps()
        for u, v, moved, done in moves:
            self._slot_transfers += 1
            if trace:
                tracer.record(t, "xfer", src=u, dst=v, bytes=moved, slot=slot)
            if faults_active:
                assert self.fault_injector is not None
                self.fault_injector.note_progress(u, v)
            self.predictor.on_use(u, v, t)
            if (u, v) in self._batch_conns:
                self._batch_remaining -= moved
            for dm in done:
                self._schedule_delivery(dm, fill_ps)
                if self.prefetcher is not None:
                    self.prefetcher.observe(u, v, t)
                    conn = self.prefetcher.prefetch(u, v, t)
                    if conn is not None:
                        # the Figure-1 predictor sits beside the scheduler,
                        # so the latch is set without a wire delay
                        sched.latch(conn.src, conn.dst)
                self._feed_nic(u)
            if self.nics[u].voqs.bytes_pending[v] == 0:
                hold = self.predictor.on_empty(u, v, t)
                self._request_wire(self._request_drop, u, v, hold)
        if trace:
            tracer.record(
                t, "slot-transfer", slot=slot, conns=len(moves), bytes=sum(m[2] for m in moves)
            )

    # -- the SL clock -------------------------------------------------------------------------

    def _sl_tick(self) -> None:
        fp = self._fastpath
        assert fp is not None
        if fp.armed and fp.handle_sl_tick():
            return  # a provably no-op pass, applied without the SL array
        sched = self.scheduler
        assert sched is not None
        t = self.sim.now
        for conn in self.predictor.expired(t):
            sched.latch(conn.src, conn.dst, False)
        if self.prefetcher is not None:
            for conn in self.prefetcher.expired(t):
                if not sched.r_view[conn.src, conn.dst]:
                    sched.latch(conn.src, conn.dst, False)
        if self.boost_policy is not None:
            self.boost_policy.update(self.queue_bytes)
            self.boost_policy.release_excess(self.queue_bytes)
        passes = sched.sl_tick()
        # the pass latches after one scheduler period; the grant then rides
        # the grant wire to the NIC before the connection can carry data
        ready = t + self.params.scheduler_pass_ps + self.params.grant_wire_ps
        for p in passes:
            if p.outcome is None:
                continue
            for tog in p.outcome.established:
                self.conn_ready[tog.u, tog.v] = ready
        self._rearm_sl_clock(self._sl_tick)

    # -- lifecycle policy callbacks (repro.networks.lifecycle) ------------------------------------
    #
    # The ConnectionManager drives watchdogs, retries, management-plane
    # escalation, and give-up; these callbacks supply TDM's policy: a watch
    # covers one (u, v) connection for as long as bytes are pending and no
    # slot carries it, and losing a pinned slot degrades to dynamic mode.

    def lifecycle_watch_resolved(self, u: int, v: int, seq: int | None) -> bool:
        if self.nics[u].voqs.bytes_pending[v] <= 0:
            return True  # drained (or dropped) — nothing to recover
        sched = self.scheduler
        assert sched is not None
        # healthy again (slot up and request visible): transfers will flow
        return bool(sched.established_anywhere(u, v) and sched.r_view[u, v])

    def lifecycle_awaiting_grant(self, u: int, v: int) -> bool:
        return bool(self.nics[u].voqs.bytes_pending[v] > 0)

    def lifecycle_awaiting_sl_dead(self, u: int, v: int) -> bool:
        sched = self.scheduler
        assert sched is not None
        return bool(
            self.nics[u].voqs.bytes_pending[v] > 0
            and not sched.established_anywhere(u, v)
        )

    def lifecycle_retry(self, u: int, v: int) -> None:
        self._request_wire(self._request_rise, u, v)

    def lifecycle_mgmt_remap(self, u: int, v: int) -> bool:
        sched = self.scheduler
        assert sched is not None
        sched.set_request(u, v, True)  # management refreshes the request latch
        slot = sched.mgmt_establish(u, v)
        if slot is None:
            return False
        ready = self.sim.now + self.params.grant_wire_ps
        self.conn_ready[u, v] = max(self.conn_ready[u, v], ready)
        self.tracer.record(self.sim.now, "mgmt-remap", src=u, dst=v, slot=slot)
        return True

    def lifecycle_give_up(self, u: int, v: int) -> None:
        """Recovery failed: explicitly drop everything queued on (u, v)."""
        sched = self.scheduler
        assert sched is not None
        nic = self.nics[u]
        removed = nic.voqs.purge(v)
        for m in [*removed, *nic.purge_script(v)]:
            self._drop_message(m, "unrecoverable")
        sched.set_request(u, v, False)
        sched.latch(u, v, False)
        for _ in range(len(removed)):
            self._feed_nic(u)

    def lifecycle_pinned_lost(self) -> None:
        self._degrade_to_dynamic()

    # -- link-state reactions (repro.faults) ------------------------------------------------------

    def _on_link_dead(self, port: int) -> None:
        """A port died for good: give up every message it touches.

        Transfers already scheduled for delivery complete (bytes in flight
        reach memory); everything still queued — in VOQs or in the
        windowed-injection scripts — to or from the port is explicitly
        dropped, its request and latch state cleared, and the predictor
        told to forget the port's connections.
        """
        n = self.params.n_ports
        sched = self.scheduler
        assert sched is not None
        victims = self._purge_port(port)
        freed = [0] * n
        for m in victims:
            freed[m.src] += 1
        for nic in self.nics:
            victims.extend(nic.purge_script(None if nic.port == port else port))
        for m in victims:
            self._drop_message(m, "dead-link")
        sched.drop_port(port)
        self.predictor.on_fault(port, self.sim.now)
        self.lifecycle.disarm_port(port)
        # queued messages the purge removed freed injection-window slots
        for u in range(n):
            if u != port:
                for _ in range(freed[u]):
                    self._feed_nic(u)

    def _degrade_to_dynamic(self) -> None:
        """Graceful degradation: abandon the preload program.

        A fault took out a pinned (preloaded) slot, so the compiled
        communication contract is broken.  The network abandons the
        program, hands every remaining pinned register back to the dynamic
        scheduler (keeping their current contents as ordinary dynamic
        configurations), and serves the rest of the run with dynamic
        scheduling only.
        """
        if self._degraded:
            return
        self._degraded = True
        self._program_gen += 1  # invalidate in-flight batch-load events
        self._program = None
        self._batch_conns = set()
        self._batch_remaining = 0
        self._batch_loading = False
        assert self.scheduler is not None
        regs = self.scheduler.registers
        for slot in list(regs.pinned):
            regs.unpin(slot)
        assert self.fault_injector is not None
        self.fault_injector.counters.inc("degraded_to_dynamic")
        self.tracer.record(self.sim.now, "degrade-to-dynamic")

    def _drop_message(self, msg: Message, reason: str) -> None:
        if (msg.src, msg.dst) in self._batch_conns:
            # the batch will never see these bytes transmitted
            self._batch_remaining -= msg.remaining
        super()._drop_message(msg, reason)
        if self._batch_conns:
            self._maybe_advance_batch()
