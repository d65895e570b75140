"""Pure circuit switching — the paper's first baseline.

Section 3: *"circuit switching amounts to TDM with a multiplexing degree of
one"*.  A dedicated path is established per message and torn down when the
message completes.  The cost accounting follows Section 5 exactly:

* the request travels to the scheduler over an 80 ns wire;
* the scheduler resolves contention with the same SL array as the TDM
  system (one pass per 80 ns, K = 1);
* the grant travels back over an 80 ns wire;
* data then streams at full link rate over the LVDS pipe
  (30 + 20 + 20 + 30 ns point-to-point latency);
* when the tail leaves, the request line drops (another 80 ns) and the
  next SL pass releases the circuit — ports stay blocked until then, which
  is the teardown overhead circuit switching pays per message.

Each NIC services its message script in FIFO order: one output link means
one circuit at a time, so only the head message's destination is
requested.  Back-to-back messages to the same destination reuse the
established circuit without teardown (the request line simply never
drops) — the best case the paper's Section 2 analysis describes.
"""

from __future__ import annotations

from ..errors import ConfigurationError
from ..faults.injector import FaultInjector
from ..params import SystemParams
from ..sched.priority import RotationPolicy, RoundRobinPriority
from ..sched.scheduler import Scheduler
from ..sched.slarray import wavefront_batch
from ..sim.engine import Priority
from ..sim.fastpath import fastpath_ineligible
from ..sim.trace import Tracer
from ..topo import Topology
from ..traffic.base import TrafficPhase
from ..types import Message, MessageRecord
from .base import BaseNetwork
from .lifecycle import LifecycleClient

__all__ = ["CircuitNetwork"]

# NIC service states
_IDLE = 0
_WAITING = 1  # request raised, circuit not granted yet
_SENDING = 2


class CircuitNetwork(BaseNetwork, LifecycleClient):
    """Per-message circuit establishment over a single crossbar."""

    scheme = "circuit"

    def __init__(
        self,
        params: SystemParams,
        rotation: RotationPolicy | None = None,
        tracer: Tracer | None = None,
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
                f"CircuitNetwork models one crossbar; topology "
                f"{self.topology.name!r} has {self.topology.n_switches} "
                f"switches (use the mesh-tdm / fattree-tdm schemes)"
            )
        self.rotation_template = rotation
        self.scheduler: Scheduler | None = None
        self._state: list[int] = []
        self._current: list[Message | None] = []
        self.circuits_established = 0

    def _reset_scheme_state(self) -> None:
        n = self.params.n_ports
        rotation = self.rotation_template or RoundRobinPriority(n)
        rotation.reset()
        self.scheduler = Scheduler(self.params, k=1, rotation=rotation)
        self._wire_scheduler(self.scheduler)
        if fastpath_ineligible(self) is None:
            # circuit switching has no slot clock to batch, but its SL
            # passes can use the vectorised wavefront (bit-identical); strict,
            # traced and faulted runs keep the sparse reference walk
            self.scheduler.wavefront = wavefront_batch
        self._state = [_IDLE] * n
        self._current = [None] * n
        self.circuits_established = 0
        # fault recovery (watchdogs, retries, give-up) is driven by the
        # lifecycle layer through the lifecycle_* callbacks below
        self.lifecycle.attach_scheduler(self.scheduler, client=self)
        self._link_blocked: set[int] = set()

    def _accept(self, msg: Message, at_phase_start: bool) -> None:
        """Messages join the source NIC's sequential script on arrival."""
        self.nics[msg.src].script.append(msg)
        if not at_phase_start and self._state[msg.src] == _IDLE:
            self._advance_nic(msg.src)

    def _execute_phase(self, phase: TrafficPhase) -> None:
        # circuit switching serves each source's messages in program order
        for u in range(self.params.n_ports):
            if self._state[u] == _IDLE and self.nics[u].script:
                self._advance_nic(u)
        self._start_clocks(self._sl_tick)
        self._run_event_loop()

    def _collect_counters(self) -> dict[str, int]:
        out = super()._collect_counters()
        out["circuits_established"] = self.circuits_established
        if self.scheduler is not None:
            out.update(self.scheduler.counters.as_dict())
        return out

    # -- NIC state machine ------------------------------------------------------

    def _advance_nic(self, u: int) -> None:
        """Start serving the next queued message at NIC ``u`` (if any)."""
        script = self.nics[u].script
        while True:
            if not script:
                self._state[u] = _IDLE
                return
            msg = script.popleft()
            if self._faults_active and (
                self._link_dead[u] or self._link_dead[msg.dst]
            ):
                self._drop_message(msg, "dead-link")
                continue
            break
        self._current[u] = msg
        self._state[u] = _WAITING
        sched = self.scheduler
        assert sched is not None
        if sched.registers.b_star[u, msg.dst]:
            # circuit still up from the previous message — reuse it now
            self._start_transmission(u, reused=True)
        else:
            # raise the request line; it reaches the scheduler after the wire
            self._request_wire(self._request_up, u, msg.dst)
            if self._faults_active:
                self.lifecycle.arm(u, msg.dst)

    def _request_up(self, u: int, v: int) -> None:
        assert self.scheduler is not None
        self._set_request_line(self.scheduler, u, v, True)

    def _request_down(self, u: int, v: int) -> None:
        sched = self.scheduler
        assert sched is not None
        # the NIC may have raised the line again for a same-destination
        # message while the drop was in flight
        msg = self._current[u]
        if msg is not None and msg.dst == v and self._state[u] != _IDLE:
            return
        self._set_request_line(sched, u, v, False)

    # -- scheduler clock -----------------------------------------------------------

    def _sl_tick(self) -> None:
        sched = self.scheduler
        assert sched is not None
        if 0 in sched.registers.quarantined:
            # the single slot is out of service; only the management plane
            # (or a message drop) can make progress now
            self._rearm_sl_clock(self._sl_tick)
            return
        result = sched.sl_pass(0)
        if result.outcome is not None:
            for t in result.outcome.established:
                self.circuits_established += 1
                # the pass takes one scheduler period to latch its result,
                # then the grant travels back to the NIC (paper: 80 + 80 ns)
                self.sim.schedule(
                    self.params.scheduler_pass_ps + self.params.grant_wire_ps,
                    self._granted,
                    t.u,
                    t.v,
                    priority=Priority.WIRE,
                )
        self._rearm_sl_clock(self._sl_tick)

    def _granted(self, u: int, v: int) -> None:
        msg = self._current[u]
        if msg is None or msg.dst != v or self._state[u] != _WAITING:
            # stale grant (the message was served over a reused circuit)
            return
        self._start_transmission(u, reused=False)

    # -- data plane -------------------------------------------------------------------

    def _start_transmission(self, u: int, reused: bool) -> None:
        msg = self._current[u]
        assert msg is not None
        params = self.params
        if self._faults_active and (
            self._link_down[u] or self._link_down[msg.dst]
        ):
            if self._link_dead[u] or self._link_dead[msg.dst]:
                v = msg.dst
                self._current[u] = None
                self._drop_message(msg, "dead-link")
                self._advance_nic(u)
                nxt = self._current[u]
                if nxt is None or nxt.dst != v:
                    self._request_wire(self._request_down, u, v)
                return
            # transient outage: hold the circuit, resume on link-up
            self._state[u] = _WAITING
            self._link_blocked.add(u)
            return
        if self._faults_active:
            self._link_blocked.discard(u)
            assert self.fault_injector is not None
            self.fault_injector.note_progress(u, msg.dst)
        self._state[u] = _SENDING
        t = self.sim.now
        tail_ps = t + params.message_bytes_ps(msg.size)
        # fill time of the established pipe; == params.pipe_latency_ps for
        # the single crossbar this scheme models
        done_ps = tail_ps + self.topology.path_latency_ps(params, 1)
        self.ledger.send(u, msg.dst, msg.size)
        record = MessageRecord(
            src=u,
            dst=msg.dst,
            size=msg.size,
            inject_ps=msg.inject_ps,
            start_ps=t,
            done_ps=done_ps,
            seq=msg.seq,
        )
        if self.tracer.enabled:
            self.tracer.record(
                t, "circuit-tx", src=u, dst=msg.dst, bytes=msg.size, reused=reused
            )
        self.sim.schedule_at(tail_ps, self._tail_left, u, priority=Priority.NIC)
        self.sim.schedule_at(done_ps, self._deliver, record, priority=Priority.NIC)

    def _tail_left(self, u: int) -> None:
        """The message's last byte left NIC ``u``: advance to the next one."""
        msg = self._current[u]
        assert msg is not None
        v = msg.dst
        self._current[u] = None
        self._advance_nic(u)
        nxt = self._current[u]
        if nxt is None or nxt.dst != v:
            # destination changed (or no more traffic): drop the request line
            self._request_wire(self._request_down, u, v)

    # -- lifecycle policy callbacks (repro.networks.lifecycle) ----------------------
    #
    # The ConnectionManager drives watchdogs, retries, management-plane
    # escalation, and give-up; these callbacks supply circuit switching's
    # policy: a watch covers a NIC's head-of-line message (its ``seq`` field
    # holds the head's identity and self-cancels stale fires after the head
    # advances; ``Message.seq`` need not be unique), and giving up drops the
    # head plus everything else queued to the same destination.

    def lifecycle_watch_ref(self, u: int, v: int) -> tuple[int, int | None]:
        msg = self._current[u]
        assert msg is not None and msg.dst == v
        return u, id(msg)

    def lifecycle_watch_resolved(self, u: int, v: int, seq: int | None) -> bool:
        msg = self._current[u]
        # progressed — or blocked on a link, which the data plane handles
        return (
            msg is None
            or id(msg) != seq
            or self._state[u] != _WAITING
            or u in self._link_blocked
        )

    def lifecycle_awaiting_grant(self, u: int, v: int) -> bool:
        # in-flight transmissions complete; WAITING NICs whose circuit just
        # evaporated are re-granted by later passes (their request is still up)
        msg = self._current[u]
        return msg is not None and msg.dst == v and self._state[u] == _WAITING

    def lifecycle_retry(self, u: int, v: int) -> None:
        self._request_wire(self._request_up, u, v)

    def lifecycle_mgmt_remap(self, u: int, v: int) -> bool:
        sched = self.scheduler
        assert sched is not None
        sched.set_request(u, v, True)  # management refreshes the request latch
        slot = sched.mgmt_establish(u, v)
        if slot is None:
            return False
        self.tracer.record(self.sim.now, "mgmt-remap", src=u, dst=v, slot=slot)
        self.sim.schedule(
            self.params.grant_wire_ps,
            self._granted,
            u,
            v,
            priority=Priority.WIRE,
        )
        return True

    def lifecycle_give_up(self, u: int, v: int) -> None:
        """Recovery failed: drop the head message and everything else to v."""
        sched = self.scheduler
        assert sched is not None
        msg = self._current[u]
        assert msg is not None and msg.dst == v
        self._current[u] = None
        self._state[u] = _IDLE
        for m in [msg, *self.nics[u].purge_script(v)]:
            self._drop_message(m, "unrecoverable")
        sched.set_request(u, v, False)
        self._advance_nic(u)

    # -- link-state reactions (repro.faults) ----------------------------------------

    def _on_link_down(self, port: int) -> None:
        inj = self.fault_injector
        assert inj is not None
        for u, msg in enumerate(self._current):
            if msg is None or self._state[u] == _SENDING:
                continue  # transmissions in flight complete (convention)
            if u == port or msg.dst == port:
                inj.note_disrupted(u, msg.dst)

    def _on_link_dead(self, port: int) -> None:
        """A port died: drop everything queued through it, advance the NICs."""
        sched = self.scheduler
        assert sched is not None
        victims: list[Message] = []
        to_advance: list[int] = []
        for u, nic in enumerate(self.nics):
            victims.extend(nic.purge_script(None if u == port else port))
            msg = self._current[u]
            if (
                msg is not None
                and self._state[u] != _SENDING
                and (u == port or msg.dst == port)
            ):
                self._current[u] = None
                self._state[u] = _IDLE
                self._link_blocked.discard(u)
                self.lifecycle.disarm(u)
                victims.append(msg)
                to_advance.append(u)
        for m in victims:
            self._drop_message(m, "dead-link")
        sched.drop_port(port)
        for u in to_advance:
            self._advance_nic(u)

    def _on_link_up(self, port: int) -> None:
        """A transient outage ended: resume the NICs it was blocking."""
        sched = self.scheduler
        assert sched is not None
        for u in list(self._link_blocked):
            msg = self._current[u]
            if msg is None:
                self._link_blocked.discard(u)
                continue
            if self._link_down[u] or self._link_down[msg.dst]:
                continue  # still blocked on the other endpoint
            self._link_blocked.discard(u)
            if sched.registers.b_star[u, msg.dst]:
                self._start_transmission(u, reused=True)
            else:
                # the circuit was torn down while blocked: request again
                self._request_wire(self._request_up, u, msg.dst)
                self.lifecycle.arm(u, msg.dst)
