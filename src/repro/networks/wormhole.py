"""Wormhole routing — the paper's second baseline.

Section 5's accounting on the single digital crossbar:

* messages are segmented into worms of at most 128 bytes (flits of 8
  bytes) *"in order to ensure fairness within the network"*;
* a worm's head flit takes NIC (10 ns) + parallel-to-serial (30 ns) +
  cable (20 ns) to reach the switch, where *"the delay through the switch
  includes the time required to schedule the first flit of the message,
  which is 80 ns"*; subsequent flits cross the switch in 10 ns;
* an output port carries one worm at a time; a head that finds its port
  busy waits (FCFS) and — this is wormhole's defining pathology —
  **backpressures its source link**, which cannot start the next worm
  until the blocked one drains;
* consecutive worms of one message pipeline through the switch's small
  buffer, so the cable delay is paid once per message, as the paper notes.

The model is event-driven at worm granularity: each worm contributes a
head-arrival, a grant, a port-release, and a delivery event, with exact
byte-time arithmetic in between — flit-level simulation would add events
but no additional contention behaviour on a single crossbar.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from ..faults.injector import FaultInjector
from ..params import SystemParams
from ..sim.engine import Priority
from ..sim.trace import Tracer
from ..traffic.base import TrafficPhase
from ..types import Message, MessageRecord
from .base import BaseNetwork

__all__ = ["WormholeNetwork"]


@dataclass(slots=True)
class _Worm:
    """One worm (message segment) in flight."""

    msg: Message
    size: int
    is_last: bool
    launch_ps: int = 0  # when its first flit left the NIC


@dataclass(slots=True)
class _OutputPort:
    """FCFS arbitration state of one crossbar output."""

    busy: bool = False
    waiting: deque = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.waiting is None:
            self.waiting = deque()


class WormholeNetwork(BaseNetwork):
    """Worm-granularity wormhole routing over one digital crossbar."""

    scheme = "wormhole"

    def __init__(
        self,
        params: SystemParams,
        tracer: Tracer | None = None,
        faults: FaultInjector | None = None,
        strict: bool | None = None,
        max_wall_s: float | None = None,
    ) -> None:
        super().__init__(
            params, tracer, faults=faults, strict=strict, max_wall_s=max_wall_s
        )
        self._nic_busy: list[bool] = []
        self._ports: list[_OutputPort] = []
        self._granted_bytes: dict[int, int] = {}  # id(message) -> bytes granted
        self._dropped_partial: list[Message] = []
        self._written_off: set[int] = set()
        self.worms_sent = 0
        self.worm_blocks = 0

    def _reset_scheme_state(self) -> None:
        n = self.params.n_ports
        self._nic_busy = [False] * n
        self._ports = [_OutputPort() for _ in range(n)]
        self._granted_bytes = {}
        self._dropped_partial = []
        self._written_off = set()
        self.worms_sent = 0
        self.worm_blocks = 0

    def _accept(self, msg: Message, at_phase_start: bool) -> None:
        """Messages join the source NIC's sequential script on arrival."""
        self.nics[msg.src].script.append(msg)
        if not at_phase_start and not self._nic_busy[msg.src]:
            self._launch_next(msg.src)

    def _execute_phase(self, phase: TrafficPhase) -> None:
        for u in range(self.params.n_ports):
            if not self._nic_busy[u] and self.nics[u].script:
                self._launch_next(u)
        self._run_event_loop()

    def _collect_counters(self) -> dict[str, int]:
        out = super()._collect_counters()
        out["worms_sent"] = self.worms_sent
        out["worm_blocks"] = self.worm_blocks
        return out

    # -- source side --------------------------------------------------------------

    def _launch_next(self, u: int) -> None:
        """Start serialising the next worm from NIC ``u``, if any."""
        script = self.nics[u].script
        if self._faults_active and self._link_down[u]:
            # the source's serial link is out: pause the serialiser; a
            # transient outage resumes it in _on_link_up, a dead link will
            # already have purged the queue
            self._nic_busy[u] = False
            return
        if not script:
            self._nic_busy[u] = False
            return
        msg = script[0]
        worm_size = min(self.params.worm_max_bytes, msg.remaining)
        msg.remaining -= worm_size
        if msg.start_ps < 0:
            msg.start_ps = self.sim.now
        is_last = msg.remaining == 0
        if is_last:
            script.popleft()
        worm = _Worm(msg=msg, size=worm_size, is_last=is_last, launch_ps=self.sim.now)
        self._nic_busy[u] = True
        self.worms_sent += 1
        # head flit reaches the switch input after NIC + SerDes + cable
        self.sim.schedule(
            self.params.wormhole_head_path_ps,
            self._head_arrived,
            worm,
            priority=Priority.TRANSFER,
        )

    # -- switch side ------------------------------------------------------------------

    def _head_arrived(self, worm: _Worm) -> None:
        port = self._ports[worm.msg.dst]
        if (
            self._faults_active
            and not port.busy
            and self._link_down[worm.msg.dst]
            and not self._link_dead[worm.msg.dst]
        ):
            # transient output-link outage: worms queue at the switch until
            # the link returns (dead links instead drain what is in flight)
            self.worm_blocks += 1
            port.waiting.append(worm)
            if self.tracer.enabled:
                self.tracer.record(
                    self.sim.now, "worm-blocked", src=worm.msg.src, dst=worm.msg.dst
                )
            return
        if port.busy:
            self.worm_blocks += 1
            port.waiting.append(worm)
            if self.tracer.enabled:
                self.tracer.record(
                    self.sim.now, "worm-blocked", src=worm.msg.src, dst=worm.msg.dst
                )
        else:
            self._arbitrate(port, worm)

    def _arbitrate(self, port: _OutputPort, worm: _Worm) -> None:
        """The scheduler needs one 80 ns pass to route the head flit."""
        port.busy = True
        self.sim.schedule(
            self.params.scheduler_pass_ps,
            self._granted,
            worm,
            priority=Priority.SCHEDULER,
        )

    def _granted(self, worm: _Worm) -> None:
        params = self.params
        t = self.sim.now
        u, v = worm.msg.src, worm.msg.dst
        body_ps = worm.size * params.byte_ps
        # flits flow: the tail clears the switch output after the body time
        # plus the 10 ns digital switch traversal
        port_free_ps = t + body_ps + params.digital_switch_ps
        deliver_ps = port_free_ps + params.wormhole_exit_path_ps
        # the tail leaves the source once flits stream; if the grant came
        # later than uninterrupted serialisation would allow, the source was
        # backpressured and frees late
        src_free_ps = max(
            worm.launch_ps, t - params.wormhole_head_path_ps
        ) + body_ps
        if self._faults_active and id(worm.msg) in self._written_off:
            # the message was dropped mid-flight and this worm's bytes were
            # already settled at the phase boundary — do not post them twice
            pass
        else:
            self.ledger.send(u, v, worm.size)
            if self._faults_active:
                assert self.fault_injector is not None
                self.fault_injector.note_progress(u, v)
                if worm.is_last:
                    self._granted_bytes.pop(id(worm.msg), None)
                else:
                    self._granted_bytes[id(worm.msg)] = (
                        self._granted_bytes.get(id(worm.msg), 0) + worm.size
                    )
        self.sim.schedule_at(
            port_free_ps, self._port_freed, v, priority=Priority.TRANSFER
        )
        self.sim.schedule_at(
            max(src_free_ps, t), self._source_freed, u, priority=Priority.NIC
        )
        if worm.is_last:
            record = MessageRecord(
                src=u,
                dst=v,
                size=worm.msg.size,
                inject_ps=worm.msg.inject_ps,
                start_ps=worm.msg.start_ps,
                done_ps=deliver_ps,
                seq=worm.msg.seq,
            )
            self.sim.schedule_at(
                deliver_ps, self._deliver, record, priority=Priority.NIC
            )
        if self.tracer.enabled:
            self.tracer.record(t, "worm-granted", src=u, dst=v, bytes=worm.size)

    def _port_freed(self, v: int) -> None:
        port = self._ports[v]
        port.busy = False
        if (
            self._faults_active
            and self._link_down[v]
            and not self._link_dead[v]
        ):
            return  # transient outage: waiting worms resume on link-up
        if port.waiting:
            self._arbitrate(port, port.waiting.popleft())

    def _source_freed(self, u: int) -> None:
        self._launch_next(u)

    def _drop_message(self, msg: Message, reason: str) -> None:
        super()._drop_message(msg, reason)
        if msg.remaining != msg.size:
            # launched worms may still be between events; their send
            # accounting settles at the phase boundary if they never grant
            self._dropped_partial.append(msg)

    def _fault_phase_reset(self) -> None:
        """Settle the dead letters before the ledger's phase-boundary audit.

        A dropped message's launched-but-ungranted worms can be stranded —
        queued at a transiently-down port whose link-up lies beyond the
        phase's end, or mid-flight when the final drop completed the phase.
        The drop already wrote those bytes off as lost; post the matching
        ``send`` here and mark the message so a leftover grant event firing
        in a later phase cannot post it twice.
        """
        super()._fault_phase_reset()
        for msg in self._dropped_partial:
            launched = msg.size - msg.remaining
            unposted = launched - self._granted_bytes.pop(id(msg), 0)
            if unposted > 0:
                self.ledger.send(msg.src, msg.dst, unposted)
            self._written_off.add(id(msg))
        self._dropped_partial.clear()

    # -- fault hooks (repro.faults) -----------------------------------------------
    #
    # Wormhole routing has no request plane, no configuration registers and
    # no SL array, so only link faults apply; the injector counts the
    # scheduler-plane faults as skipped via the BaseNetwork defaults.

    def _on_link_down(self, port: int) -> None:
        """Open recovery windows for the head-of-line traffic the cut stalls."""
        inj = self.fault_injector
        assert inj is not None
        scripts = [nic.script for nic in self.nics]
        if scripts[port]:
            inj.note_disrupted(port, scripts[port][0].dst)
        for u, script in enumerate(scripts):
            if u != port and script and script[0].dst == port:
                inj.note_disrupted(u, port)

    def _on_link_up(self, port: int) -> None:
        """Resume the paused serialiser and the queued output worms."""
        if self.nics[port].script and not self._nic_busy[port]:
            self._launch_next(port)
        out = self._ports[port]
        if not out.busy and out.waiting:
            self._arbitrate(out, out.waiting.popleft())

    def _on_link_dead(self, port: int) -> None:
        """A port died for good: drop everything still queued through it.

        Worms already committed to the fabric drain and deliver (in-flight
        data completes after a cut); messages with untransmitted bytes are
        explicitly dropped — their already-launched worms are written off
        as lost in flight by the ledger.
        """
        victims = [
            m
            for nic in self.nics
            for m in nic.purge_script(None if nic.port == port else port)
        ]
        for m in victims:
            self._drop_message(m, "dead-link")
        # a transient outage may have paused this output port's queue; the
        # death supersedes it, and the in-flight worms must still drain
        out = self._ports[port]
        if not out.busy and out.waiting:
            self._arbitrate(out, out.waiting.popleft())
