"""Multi-hop TDM switching over an explicit switch-graph topology.

This is the scale-out counterpart of :class:`~repro.networks.tdm.TdmNetwork`
— the paper's Section-6 claim that predictive multiplexed switching
amplifies over multi-hop networks, made executable.  The network is a set
of switches from a :class:`repro.topo.Topology`; **every switch owns its
own SL systolic array and K-deep configuration register file**
(:class:`~repro.sched.scheduler.Scheduler` over the switch's local port
space), and a circuit from endpoint ``u`` to endpoint ``v`` occupies one
crossbar cell on every switch along its deterministic route.

Establishment is a request/grant wavefront that crosses every hop:

1. a message raises the request line of its **home switch** (one request
   wire delay after injection); the chosen first-hop trunk link fixes the
   home crossbar cell, and circuits contending for the same cell are
   FIFO-serialised;
2. the home switch's own SL pass grants the cell in whatever dynamic slot
   its cursor schedules — that slot becomes the circuit's slot **on every
   hop** (the paper's slot-consistent multi-hop extension: all switches
   share one TDM frame, so a pipe is only contention-free if it holds the
   same slot end to end);
3. each subsequent SL clock period the wavefront claims the next switch's
   (in, out) cell in that slot.  A busy port NAKs the whole attempt: all
   claimed hops are released and the circuit re-queues at its home cell,
   where the next pass will grant a different slot (the cursor rotated);
4. after :data:`NAK_LIMIT` failed wavefronts the **hierarchical
   coordinator** takes over — the management plane scans all K slots for
   one that is free on every hop and claims the whole path atomically.
   This is the paper's two-level scheduling hierarchy: local SL arrays
   resolve local contention, the coordinator resolves end-to-end slot
   agreement when local greed livelocks;
5. the grant rides back to the NIC one scheduler pass + grant wire after
   the last hop is claimed, which makes the contention-free establishment
   latency exactly ``request_wire + h*scheduler_pass + grant_wire`` =
   :meth:`~repro.networks.multihop.MultiHopModel.tdm_establishment_ps` —
   the cross-validation test pins simulator and analytic model to within
   one slot.

Data then moves slot-synchronously: one global TDM frame steps over the K
slots, skipping slots whose established circuits have no bytes queued
(grant arrival is not checked there), and an established circuit drains
up to ``slot_bytes`` per frame, delivered after the multi-hop pipe fill
:meth:`~repro.topo.Topology.path_latency_ps`.  The data plane never walks
the circuit table: endpoint-level ``(n, n)`` matrices hold each
established circuit's slot, grant arrival and creation rank, and a
slot's holders go, in creation order, through the select-and-drain every
slotted network shares (:meth:`~repro.networks.base.BaseNetwork._drain_slot`).

Fault recovery composes the per-hop trunk state with the existing NIC
retry→remap→degrade ladder (:mod:`repro.networks.lifecycle`): a transient
trunk outage blocks the data plane (the circuit holds its slots and
resumes), a dead trunk tears every circuit riding it back to the request
plane where it re-routes around the corpse; the watchdog ladder escalates
through wavefront retries to coordinator placement to an explicit drop.

The slot-synchronous shortcuts (:mod:`repro.sim.fastpath`) are
single-switch machinery: :func:`~repro.sim.fastpath.fastpath_ineligible`
rules every multi-switch run out, so it always runs tick by tick.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigurationError, SchedulingError
from ..faults.injector import FaultInjector
from ..params import SystemParams
from ..sched.priority import RoundRobinPriority
from ..sched.scheduler import Scheduler
from ..sim.engine import Priority
from ..sim.trace import Tracer
from ..topo import Topology
from ..traffic.base import TrafficPhase
from ..types import Connection, Message
from .base import BaseNetwork
from .lifecycle import LifecycleClient

__all__ = ["MultiSwitchTdmNetwork", "NAK_LIMIT"]

#: failed wavefront attempts before the hierarchical coordinator takes over
NAK_LIMIT = 3

#: trunk-fault plan entry kinds
_TRUNK_KINDS = ("down", "dead")

#: one home-crossbar cell: (switch, in_port, out_port)
_Cell = tuple[int, int, int]


@dataclass(slots=True)
class _Circuit:
    """One end-to-end circuit: route, claimed hops, slot, and wavefront state."""

    u: int
    v: int
    #: switch indices the route traverses (length 1: intra-switch)
    switches: tuple[int, ...]
    #: chosen trunk link per inter-switch hop (None until the wavefront
    #: reaches that hop; index j joins switches[j] and switches[j+1])
    links: list[int | None]
    #: home crossbar cell (fixed at request time by the first-hop link)
    home: _Cell
    #: claimed (switch, in_port, out_port) cells, in hop order
    hops: list[_Cell] = field(default_factory=list)
    slot: int | None = None
    established: bool = False
    #: when the request became visible at the home switch
    req_seen_ps: int = 0
    naks: int = 0
    #: wavefront pacing: one hop claim per SL clock period
    last_claim_ps: int = -1


class MultiSwitchTdmNetwork(BaseNetwork, LifecycleClient):
    """End-to-end multi-hop TDM circuits over per-switch SL arrays."""

    def __init__(
        self,
        params: SystemParams,
        topology: Topology,
        k: int = 4,
        tracer: Tracer | None = None,
        *,
        scheme_label: str = "multi-tdm",
        trunk_faults: tuple[tuple[int, int, str, int], ...] = (),
        faults: FaultInjector | None = None,
        strict: bool | None = None,
        max_wall_s: float | None = None,
    ) -> None:
        super().__init__(
            params,
            tracer,
            faults=faults,
            strict=strict,
            max_wall_s=max_wall_s,
            topology=topology,
        )
        if k < 1:
            raise ConfigurationError("multiplexing degree must be >= 1")
        for port_count in topology.switch_ports:
            if port_count < 2:
                raise ConfigurationError(
                    f"every switch needs >= 2 ports for an SL array; "
                    f"topology {topology.name!r} has a {port_count}-port switch"
                )
        self.k = k
        self.scheme = scheme_label
        #: seeded per-hop fault campaign: (time_ps, link, kind, duration_ps)
        #: entries taking trunk links down ("down", transient) or out
        #: ("dead", permanent); requires a FaultInjector for the recovery
        #: ladder's retry policy and accounting
        self._trunk_plan = tuple(sorted(trunk_faults))
        for entry in self._trunk_plan:
            time_ps, link, kind, duration_ps = entry
            if kind not in _TRUNK_KINDS:
                raise ConfigurationError(
                    f"trunk fault kind must be one of {_TRUNK_KINDS}: {entry}"
                )
            if not 0 <= link < topology.n_links:
                raise ConfigurationError(f"trunk fault names unknown link: {entry}")
            if time_ps < 0 or (kind == "down" and duration_ps <= 0):
                raise ConfigurationError(f"trunk fault times must be sane: {entry}")
        if self._trunk_plan and faults is None:
            raise ConfigurationError(
                "a trunk-fault plan needs a FaultInjector (its retry policy "
                "drives the recovery ladder); pass faults=FaultInjector([], ...)"
            )
        # per-run state, created in _reset_scheme_state()
        self.schedulers: list[Scheduler] = []
        self._hold_count: list[np.ndarray] = []
        self._circuits: dict[Connection, _Circuit] = {}
        #: the data plane's endpoint-level view of established circuits:
        #: slot held (-1: none) and creation rank; grant arrival at the NIC
        #: is :attr:`conn_ready`
        self._slot_of = np.full((0, 0), -1, dtype=np.int32)
        self._rank = np.zeros((0, 0), dtype=np.int32)
        self._next_rank = 0
        self._cell_fifo: dict[_Cell, deque[Connection]] = {}
        self._claim_queue: list[Connection] = []
        self._coord_queue: list[Connection] = []
        self._trunk_cursor: dict[tuple[int, int], int] = {}
        self._slot_cursor = 0
        self._est_sum_ps = 0
        self._est_max_ps = 0
        self._est_count = 0
        self._naks = 0
        self._coordinated = 0
        self._circuits_established = 0
        self._teardowns = 0
        self._slot_transfers = 0
        self._slot_opportunities = 0
        self._slot_idle_ticks = 0
        self._spurious_grants = 0

    # -- run setup --------------------------------------------------------------------

    def _reset_scheme_state(self) -> None:
        topo = self.topology
        self.schedulers = []
        for ports in topo.switch_ports:
            sched = Scheduler(
                self.params.with_overrides(n_ports=ports),
                k=self.k,
                rotation=RoundRobinPriority(ports),
            )
            self._wire_scheduler(sched)
            self.schedulers.append(sched)
        # Reference counts behind each scheduler's ``latched`` mask.  Two
        # circuits may legitimately hold the same (in, out) cell in different
        # slots (B* counts realisations), so the boolean latch must only drop
        # once the last holder releases.
        self._hold_count = [
            np.zeros((ports, ports), dtype=np.int32) for ports in topo.switch_ports
        ]
        self._circuits = {}
        n = self.params.n_ports
        self._slot_of = np.full((n, n), -1, dtype=np.int32)
        self._rank = np.zeros((n, n), dtype=np.int32)
        self._next_rank = 0
        self._cell_fifo = {}
        self._claim_queue = []
        self._coord_queue = []
        self._trunk_cursor = {}
        self._slot_cursor = 0
        self._est_sum_ps = 0
        self._est_max_ps = 0
        self._est_count = 0
        self._naks = 0
        self._coordinated = 0
        self._circuits_established = 0
        self._teardowns = 0
        self._slot_transfers = 0
        self._slot_opportunities = 0
        self._slot_idle_ticks = 0
        self._spurious_grants = 0
        # per-switch schedulers: the single-scheduler fault hooks decline,
        # but the watchdog ladder and link state run through the manager
        self.lifecycle.attach_scheduler(None, client=self)
        if self._trunk_plan:
            # the per-hop campaign makes this a faulted run even when the
            # endpoint-fault schedule is empty: drops/recovery accounting on
            self._faults_active = True
            for time_ps, link, kind, duration_ps in self._trunk_plan:
                if kind == "down":
                    self.sim.schedule_at(
                        time_ps,
                        self._trunk_down_fire,
                        link,
                        duration_ps,
                        priority=Priority.FABRIC,
                    )
                else:
                    self.sim.schedule_at(
                        time_ps, self._trunk_dead_fire, link, priority=Priority.FABRIC
                    )

    # -- phase execution --------------------------------------------------------------

    def _execute_phase(self, phase: TrafficPhase) -> None:
        self._start_clocks(self._sl_tick, self._slot_tick)
        self._run_event_loop()

    def _accept(self, msg: Message, at_phase_start: bool) -> None:
        """Queue the message; its request reaches the home switch one
        request-wire delay later."""
        super()._accept(msg, at_phase_start)
        self._request_wire(self._request_rise, msg.src, msg.dst)

    # -- the request plane ------------------------------------------------------------

    def _request_rise(self, u: int, v: int) -> None:
        """A request edge arrives at endpoint ``u``'s home switch."""
        if self.nics[u].voqs.bytes_pending[v] <= 0:
            return  # drained (or dropped) before the wire settled
        circ = self._circuits.get((u, v))
        if circ is not None:
            if self._faults_active and not circ.established:
                self.lifecycle.arm(u, v)
            return  # the circuit is already requested, claimed, or cached
        self._open_circuit(u, v)

    def _open_circuit(self, u: int, v: int) -> _Circuit | None:
        """Create the circuit: fix its route and home cell, queue it."""
        topo = self.topology
        mask = self._route_mask()
        switches = topo.route(u, v, mask)
        if switches is None:
            # the fabric is partitioned: nothing can ever carry (u, v)
            self._drop_pair(u, v, "no-route")
            return None
        in_port = topo.endpoint_port[u]
        n_hops = len(switches)
        links: list[int | None] = [None] * (n_hops - 1)
        if n_hops == 1:
            out_port = topo.endpoint_port[v]
        else:
            first = self._pick_trunk_link(switches[0], switches[1], rotate=True)
            if first is None:
                # every parallel link of the first trunk is dead; reroute
                # is impossible (route() already avoided dead trunks), so
                # this can only be a transient-vs-dead disagreement
                self._drop_pair(u, v, "no-route")
                return None
            links[0] = first
            out_port = topo.links[first].port_on(switches[0])
        home: _Cell = (switches[0], in_port, out_port)
        circ = _Circuit(
            u=u,
            v=v,
            switches=switches,
            links=links,
            home=home,
            req_seen_ps=self.sim.now,
        )
        self._circuits[(u, v)] = circ
        # the data plane serves a slot's holders in circuit creation order
        self._rank[u, v] = self._next_rank
        self._next_rank += 1
        self._queue_home(circ)
        if self.tracer.enabled:
            self.tracer.record(
                self.sim.now, "req-rise", src=u, dst=v, hops=n_hops
            )
        if self._faults_active:
            self.lifecycle.arm(u, v)
        return circ

    def _route_mask(self) -> np.ndarray | None:
        """Routing avoids dead trunks; transient outages keep their routes."""
        if self._faults_active and bool(self.lifecycle.trunk_dead.any()):
            return ~self.lifecycle.trunk_dead
        return None

    def _pick_trunk_link(self, a: int, b: int, *, rotate: bool) -> int | None:
        """Choose one healthy parallel link of trunk (a, b).

        Prefers links that are fully up; falls back to transiently-down
        links (the circuit waits out the outage) but never dead ones.
        ``rotate`` advances the per-trunk round-robin cursor so successive
        circuits spread over the parallel links deterministically.
        """
        ids = self.topology.trunk_links(a, b)
        if not ids:
            return None
        down = self.lifecycle.trunk_down
        dead = self.lifecycle.trunk_dead
        candidates = [l for l in ids if not down[l]]
        if not candidates:
            candidates = [l for l in ids if not dead[l]]
        if not candidates:
            return None
        key = (a, b) if a < b else (b, a)
        cursor = self._trunk_cursor.get(key, 0)
        choice = candidates[cursor % len(candidates)]
        if rotate:
            self._trunk_cursor[key] = cursor + 1
        return choice

    def _drop_pair(self, u: int, v: int, reason: str) -> None:
        """Drop everything queued on (u, v): the fabric cannot carry it."""
        for msg in self.nics[u].voqs.purge(v):
            self._drop_message(msg, reason)

    # -- the SL clock: per-switch passes + the inter-switch wavefront ------------------

    def _sl_tick(self) -> None:
        t = self.sim.now
        # 1) every switch runs its own SL pass; a pass that grants a home
        #    cell starts that circuit's wavefront in the granted slot
        for w, sched in enumerate(self.schedulers):
            p = sched.sl_pass()
            if p.outcome is None or p.slot is None:
                continue
            for tog in p.outcome.established:
                self._home_granted(w, tog.u, tog.v, p.slot, t)
        # 2) wavefronts advance one switch per SL clock period
        still: list[Connection] = []
        for key in self._claim_queue:
            circ = self._circuits.get(key)
            if circ is None or circ.established or not circ.hops:
                continue  # torn down or NAK-requeued meanwhile
            if circ.last_claim_ps >= t:
                still.append(key)  # granted this very tick; claim next tick
                continue
            advanced = self._claim_next_hop(circ, t)
            if advanced and not circ.established:
                still.append(key)
            # NAKed circuits went back to their home-cell queue
        self._claim_queue = still
        # 3) the hierarchical coordinator places repeatedly-NAKed circuits
        if self._coord_queue:
            remaining: list[Connection] = []
            for key in self._coord_queue:
                circ = self._circuits.get(key)
                if circ is None or circ.established:
                    continue
                if circ.hops:
                    remaining.append(key)  # a wavefront is mid-flight; wait
                    continue
                if not self._coordinated_establish(circ, t):
                    remaining.append(key)
            self._coord_queue = remaining
        self._rearm_sl_clock(self._sl_tick)

    def _latch(self, w: int, i: int, o: int) -> None:
        """Hold cell (i, o) on switch ``w`` against autonomous SL release.

        Reference-counted: distinct circuits may realise the same cell in
        different slots, so the latch only drops with the last holder.
        """
        self._hold_count[w][i, o] += 1
        self.schedulers[w].latch(i, o)

    def _unlatch(self, w: int, i: int, o: int) -> None:
        count = self._hold_count[w]
        if count[i, o] > 0:
            count[i, o] -= 1
        if count[i, o] == 0:
            self.schedulers[w].latch(i, o, False)

    def _home_granted(self, w: int, i: int, o: int, slot: int, t: int) -> None:
        """The home switch's SL array granted cell (i, o) in ``slot``."""
        fifo = self._cell_fifo.get((w, i, o))
        if not fifo:
            # nobody is waiting on the cell (e.g. torn down this tick);
            # release the grant so the slot is not silently leaked
            self.schedulers[w].registers.release(slot, i, o)
            self._spurious_grants += 1
            return
        key = fifo.popleft()
        circ = self._circuits[key]
        circ.slot = slot
        circ.hops = [(w, i, o)]
        circ.last_claim_ps = t
        # a claimed cell is latched: the owning switch's own SL passes must
        # not release it while the request line idles between bursts
        self._latch(w, i, o)
        if len(circ.switches) == 1:
            self._finish_establish(circ, t, via="sl")
        else:
            self._claim_queue.append(key)

    def _claim_next_hop(self, circ: _Circuit, t: int) -> bool:
        """Claim the next switch's cell in the circuit's slot (or NAK)."""
        j = len(circ.hops)
        w = circ.switches[j]
        assert circ.slot is not None
        in_link = circ.links[j - 1]
        assert in_link is not None
        in_port = self.topology.links[in_link].port_on(w)
        hop = self._free_hop(circ, j, circ.slot, in_port)
        if hop is None:
            self._nak(circ)
            return False
        out_port, link = hop
        if link is not None:
            circ.links[j] = link
        self.schedulers[w].registers.establish(circ.slot, in_port, out_port)
        self._latch(w, in_port, out_port)
        circ.hops.append((w, in_port, out_port))
        circ.last_claim_ps = t
        if link is None:
            self._finish_establish(circ, t, via="wavefront")
        return True

    def _free_hop(
        self, circ: _Circuit, j: int, slot: int, in_port: int
    ) -> tuple[int, int | None] | None:
        """Can hop ``j`` of the circuit enter ``slot`` at ``in_port``?

        The input must be free, and so must the output: the destination
        port on the last hop, else the first free candidate link towards
        the next switch.  Returns ``(out_port, link)`` (``link`` is None on
        the last hop), or None when the hop is busy.
        """
        topo = self.topology
        switches = circ.switches
        w = switches[j]
        cfg = self.schedulers[w].registers[slot]
        if cfg.input_busy()[in_port]:
            return None
        if j == len(switches) - 1:
            out_port = topo.endpoint_port[circ.v]
            return None if cfg.output_busy()[out_port] else (out_port, None)
        output_busy = cfg.output_busy()
        for link_id in self._hop_link_candidates(w, switches[j + 1]):
            port = topo.links[link_id].port_on(w)
            if not output_busy[port]:
                return port, link_id
        return None

    def _hop_link_candidates(self, a: int, b: int) -> list[int]:
        """Usable parallel links of trunk (a, b), up-links first."""
        down = self.lifecycle.trunk_down
        dead = self.lifecycle.trunk_dead
        ids = self.topology.trunk_links(a, b)
        up = [l for l in ids if not down[l]]
        waiting = [l for l in ids if down[l] and not dead[l]]
        return up + waiting

    def _nak(self, circ: _Circuit) -> None:
        """A busy port rejected the wavefront: release and requeue at home."""
        self._naks += 1
        circ.naks += 1
        self._release_hops(circ)
        key = (circ.u, circ.v)
        # head of the home queue again: the next home grant (a rotated
        # slot) retries it before younger circuits
        self._queue_home(circ, front=True)
        if self.tracer.enabled:
            self.tracer.record(
                self.sim.now, "circuit-nak", src=circ.u, dst=circ.v, naks=circ.naks
            )
        if circ.naks >= NAK_LIMIT and key not in self._coord_queue:
            self._coord_queue.append(key)

    def _coordinated_establish(self, circ: _Circuit, t: int) -> bool:
        """Management plane: find one slot free on every hop, claim it all.

        The two-level hierarchy's upper half — where the greedy per-switch
        wavefront livelocks, the coordinator has global sight of all K
        register files along the path and places the circuit atomically.
        """
        for slot in range(self.k):
            placement = self._try_place(circ, slot)
            if placement is None:
                continue
            hops, links = placement
            for w, i, o in hops:
                self.schedulers[w].registers.establish(slot, i, o)
                self._latch(w, i, o)
            circ.slot = slot
            circ.hops = list(hops)
            circ.links = links
            circ.last_claim_ps = t
            self._unqueue_home(circ)
            self._coordinated += 1
            self._finish_establish(circ, t, via="coordinator")
            return True
        return False

    def _try_place(
        self, circ: _Circuit, slot: int
    ) -> tuple[list[_Cell], list[int | None]] | None:
        """Can the whole path fit in ``slot``?  Returns (hops, links) if so."""
        topo = self.topology
        switches = circ.switches
        hops: list[_Cell] = []
        links: list[int | None] = [None] * (len(switches) - 1)
        in_port = topo.endpoint_port[circ.u]
        for j, w in enumerate(switches):
            hop = self._free_hop(circ, j, slot, in_port)
            if hop is None:
                return None
            out_port, link = hop
            hops.append((w, in_port, out_port))
            if link is not None:
                links[j] = link
                in_port = topo.links[link].port_on(switches[j + 1])
        return hops, links

    def _finish_establish(self, circ: _Circuit, t: int, via: str) -> None:
        """The last hop is claimed; the grant rides back to the NIC."""
        assert circ.slot is not None
        circ.established = True
        ready_ps = t + self.params.scheduler_pass_ps + self.params.grant_wire_ps
        self._slot_of[circ.u, circ.v] = circ.slot
        self.conn_ready[circ.u, circ.v] = ready_ps
        # establishment latency measured from the injection-side request
        # edge (one request wire before it reached the home switch)
        latency = ready_ps - (circ.req_seen_ps - self.params.request_wire_ps)
        self._est_sum_ps += latency
        self._est_count += 1
        self._est_max_ps = max(self._est_max_ps, latency)
        self._circuits_established += 1
        if self.tracer.enabled:
            self.tracer.record(
                t,
                "conn-establish",
                src=circ.u,
                dst=circ.v,
                slot=circ.slot,
                hops=len(circ.switches),
                via=via,
            )

    # -- the TDM data plane: one global slot frame -------------------------------------

    def _slot_tick(self) -> None:
        t = self.sim.now
        # established circuits as flat endpoint indices, and their slots
        held = np.flatnonzero(self._slot_of >= 0)
        slots = self._slot_of.ravel()[held]
        slot = self._advance_slot(held, slots)
        if slot is None:
            self._slot_idle_ticks += 1
        else:
            self._transfer_slot(slot, held[slots == slot], t)
        self._rearm_slot_clock(self._slot_tick)

    def _advance_slot(self, held: np.ndarray, slots: np.ndarray) -> int | None:
        """Step the shared TDM frame to the next slot with work (skip-idle).

        A slot has work when one of its established circuits has bytes
        queued; grant arrival is not checked.  Hierarchical slot
        consistency means every switch sees the same frame position, so
        one network-level cursor advances them all.
        """
        work = np.zeros(self.k, dtype=bool)
        work[slots[self.queue_bytes.ravel()[held] > 0]] = True
        for off in range(self.k):
            slot = (self._slot_cursor + off) % self.k
            if work[slot]:
                self._slot_cursor = (slot + 1) % self.k
                return slot
        return None

    def _transfer_slot(self, slot: int, holders: np.ndarray, t: int) -> None:
        """Every established circuit holding this slot moves one slot's bytes.

        ``holders`` are the circuits' flat endpoint indices.  They are
        drained in circuit creation order, so deliveries, ``xfer`` records
        and request drops keep one deterministic order.
        """
        self._slot_opportunities += len(holders)
        holders = holders[np.argsort(self._rank.ravel()[holders])]
        us, vs = np.divmod(holders, self.params.n_ports)
        faults_active = self._faults_active
        if faults_active and self.lifecycle.trunk_down.any():
            # a circuit riding a down trunk holds its slot but moves nothing
            up = [
                not self._trunk_blocked(self._circuits[(u, v)])
                for u, v in zip(us.tolist(), vs.tolist())
            ]
            us, vs = us[up], vs[up]
        moves = self._drain_slot(
            us, vs, t, self.conn_ready, self._link_down if faults_active else None
        )
        params = self.params
        trace = self.tracer.enabled
        for u, v, moved, done in moves:
            self._slot_transfers += 1
            if trace:
                self.tracer.record(t, "xfer", src=u, dst=v, bytes=moved, slot=slot)
            if faults_active:
                assert self.fault_injector is not None
                self.fault_injector.note_progress(u, v)
            if done:
                hops = len(self._circuits[(u, v)].switches)
                fill_ps = self.topology.path_latency_ps(params, hops)
                for dm in done:
                    self._schedule_delivery(dm, fill_ps)
            if self.queue_bytes[u, v] == 0:
                # the queue-empty edge reaches the home switch one request
                # wire later; the circuit is torn down unless refilled
                self._request_wire(self._request_drop, u, v)

    def _circuit_blocked(self, circ: _Circuit) -> bool:
        down = self.lifecycle.link_down
        return bool(down[circ.u] or down[circ.v]) or self._trunk_blocked(circ)

    def _trunk_blocked(self, circ: _Circuit) -> bool:
        trunk_down = self.lifecycle.trunk_down
        return any(l is not None and trunk_down[l] for l in circ.links)

    def _request_drop(self, u: int, v: int) -> None:
        """The queue-empty edge arrived: release the circuit end to end."""
        if self.nics[u].voqs.bytes_pending[v] > 0:
            return  # refilled while the drop edge was on the wire
        circ = self._circuits.get((u, v))
        if circ is None:
            return
        self._teardown(circ)

    # -- teardown ---------------------------------------------------------------------

    def _release_hops(self, circ: _Circuit) -> None:
        """Release every claimed cell (wavefront abort or teardown)."""
        if circ.slot is not None:
            for w, i, o in circ.hops:
                self.schedulers[w].registers.release(circ.slot, i, o)
                self._unlatch(w, i, o)
        circ.hops = []
        circ.slot = None
        circ.established = False
        self._slot_of[circ.u, circ.v] = -1
        for j in range(1, len(circ.links)):
            circ.links[j] = None

    # -- the home-cell queue ---------------------------------------------------------
    #
    # Circuits waiting for a grant of the same home crossbar cell queue in
    # FIFO order.  Joining the queue raises the home switch's request line
    # for the cell; leaving it other than by a grant drops the line once
    # the queue is empty.  An empty queue and a missing one mean the same
    # everywhere.

    def _queue_home(self, circ: _Circuit, *, front: bool = False) -> None:
        """Queue the circuit at its home cell unless queued, raise the request."""
        key = (circ.u, circ.v)
        fifo = self._cell_fifo.setdefault(circ.home, deque())
        if key not in fifo:
            if front:
                fifo.appendleft(key)
            else:
                fifo.append(key)
        w, i, o = circ.home
        self.schedulers[w].set_request(i, o, True)

    def _unqueue_home(self, circ: _Circuit) -> None:
        """Take the circuit off its home-cell queue; an empty queue drops
        the home request."""
        fifo = self._cell_fifo.get(circ.home)
        if fifo is not None:
            key = (circ.u, circ.v)
            if key in fifo:
                fifo.remove(key)
            if fifo:
                return
            del self._cell_fifo[circ.home]
        w, i, o = circ.home
        self.schedulers[w].set_request(i, o, False)

    def _teardown(self, circ: _Circuit) -> None:
        """Remove the circuit entirely: cells, home queue, request line."""
        self._release_hops(circ)
        self._circuits.pop((circ.u, circ.v), None)
        self._unqueue_home(circ)
        self._teardowns += 1
        if self.tracer.enabled:
            self.tracer.record(
                self.sim.now, "conn-release", src=circ.u, dst=circ.v
            )

    # -- trunk fault plan -------------------------------------------------------------

    def _trunk_down_fire(self, link: int, duration_ps: int) -> None:
        assert self.fault_injector is not None
        if self.lifecycle.trunk_link_down(link, duration_ps):
            self.fault_injector.counters.inc("trunk_transients")
            self.sim.schedule(
                duration_ps, self._trunk_up_fire, link, priority=Priority.FABRIC
            )

    def _trunk_up_fire(self, link: int) -> None:
        self.lifecycle.trunk_link_up(link)

    def _trunk_dead_fire(self, link: int) -> None:
        assert self.fault_injector is not None
        if self.lifecycle.trunk_link_dead(link):
            self.fault_injector.counters.inc("trunk_dead")

    def _on_trunk_down(self, link: int) -> None:
        """Transient trunk outage: circuits hold their slots, data stalls."""
        inj = self.fault_injector
        assert inj is not None
        for (u, v), circ in self._circuits.items():
            if link in circ.links and self.nics[u].voqs.bytes_pending[v] > 0:
                inj.note_disrupted(u, v)
                self.lifecycle.arm(u, v)

    def _on_trunk_up(self, link: int) -> None:
        """Outage over: blocked circuits resume in their held slots."""

    def _on_trunk_dead(self, link: int) -> None:
        """A trunk died: tear its circuits back to the request plane.

        Each affected circuit re-routes around the corpse on its next
        request edge; the watchdog ladder escalates the ones that stall
        (wavefront retry → coordinator remap → explicit drop).
        """
        inj = self.fault_injector
        assert inj is not None
        victims = [
            circ for circ in self._circuits.values() if link in circ.links
        ]
        for circ in victims:
            u, v = circ.u, circ.v
            pending = int(self.nics[u].voqs.bytes_pending[v])
            self._teardown(circ)
            if pending > 0:
                inj.note_disrupted(u, v)
                self.lifecycle.arm(u, v)
                # re-raise the request immediately; the new route avoids
                # dead trunks (or the pair is dropped as unroutable)
                self._request_wire(self._request_rise, u, v)

    # -- endpoint link-state reactions --------------------------------------------------

    def _on_link_dead(self, port: int) -> None:
        """An endpoint died for good: drop its traffic, free its circuits."""
        victims = self._purge_port(port)
        for circ in [
            c for c in self._circuits.values() if port in (c.u, c.v)
        ]:
            self._teardown(circ)
        for m in victims:
            self._drop_message(m, "dead-link")
        self.lifecycle.disarm_port(port)

    # -- lifecycle policy callbacks (repro.networks.lifecycle) ---------------------------

    def lifecycle_watch_resolved(self, u: int, v: int, seq: int | None) -> bool:
        if self.nics[u].voqs.bytes_pending[v] <= 0:
            return True  # drained (or dropped) — nothing to recover
        circ = self._circuits.get((u, v))
        return bool(
            circ is not None and circ.established and not self._circuit_blocked(circ)
        )

    def lifecycle_awaiting_grant(self, u: int, v: int) -> bool:
        if self.nics[u].voqs.bytes_pending[v] <= 0:
            return False
        circ = self._circuits.get((u, v))
        return circ is None or not circ.established

    def lifecycle_retry(self, u: int, v: int) -> None:
        self._request_wire(self._request_rise, u, v)

    def lifecycle_mgmt_remap(self, u: int, v: int) -> bool:
        """Escalation: the coordinator places the circuit directly."""
        circ = self._circuits.get((u, v))
        if circ is None:
            circ = self._open_circuit(u, v)
            if circ is None:
                return False  # unroutable; _open_circuit dropped the pair
        if circ.established:
            # established but stalled behind an outage: nothing to remap
            # onto (routes only avoid dead trunks); keep waiting
            return not self._circuit_blocked(circ)
        self._release_hops(circ)
        if self._coordinated_establish(circ, self.sim.now):
            self.tracer.record(
                self.sim.now, "mgmt-remap", src=u, dst=v, slot=circ.slot
            )
            return True
        # keep it requestable: back on its home queue if it fell off
        self._queue_home(circ, front=True)
        return False

    def lifecycle_give_up(self, u: int, v: int) -> None:
        circ = self._circuits.get((u, v))
        if circ is not None:
            self._teardown(circ)
        self._drop_pair(u, v, "unrecoverable")

    # -- accounting ---------------------------------------------------------------------

    def _collect_counters(self) -> dict[str, int]:
        out = super()._collect_counters()
        out["topo_switches"] = self.topology.n_switches
        out["topo_trunk_links"] = self.topology.n_links
        out["topo_diameter"] = self.topology.diameter()
        out["circuits_established"] = self._circuits_established
        out["circuits_coordinated"] = self._coordinated
        out["circuit_naks"] = self._naks
        out["circuit_teardowns"] = self._teardowns
        out["est_latency_sum_ps"] = self._est_sum_ps
        out["est_latency_max_ps"] = self._est_max_ps
        out["est_latency_count"] = self._est_count
        out["slot_transfers"] = self._slot_transfers
        out["slot_opportunities"] = self._slot_opportunities
        out["slot_idle_ticks"] = self._slot_idle_ticks
        out["spurious_grants"] = self._spurious_grants
        agg: dict[str, int] = {}
        for sched in self.schedulers:
            for key, value in sched.counters.as_dict().items():
                agg[key] = agg.get(key, 0) + value
        for key in sorted(agg):
            out[f"sl_{key}"] = agg[key]
        return out

    def _check_invariants(self) -> None:
        super()._check_invariants()
        for sched in self.schedulers:
            sched.registers.check_invariants()
        held = {key: c.slot for key, c in self._circuits.items() if c.established}
        us, vs = np.nonzero(self._slot_of >= 0)
        if dict(zip(zip(us.tolist(), vs.tolist()), self._slot_of[us, vs].tolist())) != held:
            raise SchedulingError("the data plane's slot matrix disagrees with the circuits")
        for (u, v), circ in self._circuits.items():
            if circ.established:
                assert circ.slot is not None
                for w, i, o in circ.hops:
                    cfg = self.schedulers[w].registers[circ.slot]
                    if (i, o) not in cfg:
                        raise SchedulingError(
                            f"circuit ({u} -> {v}) claims cell ({i}, {o}) of "
                            f"switch {w} slot {circ.slot}, but the register "
                            f"file disagrees"
                        )
