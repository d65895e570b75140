"""iSLIP — the iterative VOQ crossbar scheduler ("The Tiny Tera").

The literature baseline the bake-off measures the paper's predictive TDM
schemes against: a slotted packet switch whose configuration is recomputed
*every slot* by N iterations of round-robin grant/accept matching over the
per-input virtual output queues.

One slot of the matcher:

* **request** — input ``u`` requests every output with a non-empty VOQ;
* **grant** — each unmatched output grants the first requesting unmatched
  input at or after its grant pointer ``g[v]``;
* **accept** — each input accepts the first granting output at or after
  its accept pointer ``a[u]``; both pointers advance to one past the
  accepted port **only when the accept happened in the first iteration**.

That pointer rule is the whole trick: under sustained load the pointers
*desynchronise* until every output's pointer sits on a different input, at
which point one iteration finds a full match every slot — the classic
100 %-throughput-under-uniform result (pinned by the tests).  Further
iterations only fill holes left by conflicts and never move pointers, so
the desynchronised fixed point is stable.

Both round-robin picks are argmins over a *rotated distance*: "the first
requester at or after ``g[v]``" is the requester ``u`` with the smallest
``(u - g[v]) % n``, and likewise ``(v - a[u]) % n`` for accepts.  So one
iteration is two masked argmins over the request mask ``queue_bytes > 0``
— per column for the grants, per row for the accepts — with no per-port loop;
matches are listed in ascending input order.  The matching is then
drained, in that order, through the select-and-drain every slotted
network shares (:meth:`~repro.networks.base.BaseNetwork._drain_slot`),
and each completed message is delivered after the crossbar's pipe fill
(:meth:`~repro.networks.base.BaseNetwork._schedule_delivery`).

The network reuses the paper's physical constants — slot length, per-slot
payload, pipe latency — so a bake-off row differs from ``dynamic-tdm``
only in the scheduling discipline, never in the plant.  Unlike the TDM
scheduler there are no request/grant wires or SL passes to amortise: the
matcher is modelled as the Tiny Tera's dedicated hardware, recomputing
within the slot it schedules.  What iSLIP gives up is exactly what the
paper's schemes exploit — no configuration is ever reused, so nothing is
predictive and nothing is preloadable.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError
from ..fabric.crossbar import Crossbar
from ..fabric.timing import FabricTiming
from ..params import SystemParams
from ..sim.engine import Priority
from ..sim.trace import Tracer
from ..topo import Topology
from ..traffic.base import TrafficPhase
from .base import BaseNetwork

__all__ = ["IslipNetwork"]


class IslipNetwork(BaseNetwork):
    """Slotted crossbar packet switch under iterative iSLIP matching."""

    scheme = "islip"

    def __init__(
        self,
        params: SystemParams,
        iterations: int = 2,
        tracer: Tracer | None = None,
        strict: bool | None = None,
        max_wall_s: float | None = None,
        topology: Topology | None = None,
    ) -> None:
        super().__init__(
            params, tracer, strict=strict, max_wall_s=max_wall_s, topology=topology
        )
        if not self.topology.is_single_switch:
            raise ConfigurationError(
                f"IslipNetwork models one crossbar; topology "
                f"{self.topology.name!r} has {self.topology.n_switches} switches"
            )
        if iterations < 1:
            raise ConfigurationError("iSLIP needs at least one iteration")
        self.iterations = iterations
        # per-run state
        self.crossbar: Crossbar | None = None
        self._grant_ptr: np.ndarray = np.zeros(params.n_ports, dtype=np.int64)
        self._accept_ptr: np.ndarray = np.zeros(params.n_ports, dtype=np.int64)
        self._phase_gen = 0
        self.islip_slots = 0
        self.islip_matches = 0
        #: per-slot match sizes of the current run (test hook: the
        #: desynchronisation fixed point shows as a steady-state plateau)
        self.slot_match_counts: list[int] = []

    def _reset_scheme_state(self) -> None:
        n = self.params.n_ports
        self.crossbar = Crossbar(self.params, FabricTiming.lvds(self.params))
        self._grant_ptr = np.zeros(n, dtype=np.int64)
        self._accept_ptr = np.zeros(n, dtype=np.int64)
        self._phase_gen = 0
        self.islip_slots = 0
        self.islip_matches = 0
        self.slot_match_counts = []

    def _execute_phase(self, phase: TrafficPhase) -> None:
        self._phase_gen += 1
        self.sim.schedule(
            self.params.slot_ps, self._slot_tick, self._phase_gen,
            priority=Priority.FABRIC,
        )
        self._run_event_loop()

    def _collect_counters(self) -> dict[str, int]:
        out = super()._collect_counters()
        out["islip_slots"] = self.islip_slots
        out["islip_matches"] = self.islip_matches
        assert self.crossbar is not None
        out["reconfigurations"] = self.crossbar.reconfigurations
        return out

    # -- the matcher --------------------------------------------------------------

    def _match(self, requests: np.ndarray) -> list[tuple[int, int]]:
        """Run ``iterations`` grant/accept rounds over the request mask.

        Returns the matching, input-ascending within each iteration.
        """
        n = self.params.n_ports
        ports = np.arange(n)
        grant_ptr = self._grant_ptr
        accept_ptr = self._accept_ptr
        live = requests.copy()
        matching: list[tuple[int, int]] = []
        for it in range(self.iterations):
            outs = np.nonzero(live.any(axis=0))[0]
            if not len(outs):
                break
            # grant: each output picks the requester nearest at or after
            # its pointer, i.e. the least rotated distance (u - g[v]) % n
            dist = np.where(live, (ports[:, None] - grant_ptr) % n, n)
            grants = np.zeros((n, n), dtype=bool)
            grants[dist.argmin(axis=0)[outs], outs] = True
            # accept: each granted input picks the granting output nearest
            # at or after its pointer, (v - a[u]) % n
            ins = np.nonzero(grants.any(axis=1))[0]
            dist = np.where(grants, (ports - accept_ptr[:, None]) % n, n)
            accepted = dist.argmin(axis=1)[ins]
            matching.extend(zip(ins.tolist(), accepted.tolist()))
            live[ins, :] = False
            live[:, accepted] = False
            if it == 0:
                # pointers move only on first-iteration accepts — the
                # rule that makes the round-robins desynchronise
                grant_ptr[accepted] = (ins + 1) % n
                accept_ptr[ins] = (accepted + 1) % n
        return matching

    # -- the slot loop ------------------------------------------------------------

    def _slot_tick(self, gen: int) -> None:
        if gen != self._phase_gen:
            return  # stale tick armed by a previous phase
        t = self.sim.now
        params = self.params
        self.islip_slots += 1
        requests = self.queue_bytes > 0
        matching = self._match(requests) if requests.any() else []
        self.slot_match_counts.append(len(matching))
        self.islip_matches += len(matching)
        assert self.crossbar is not None
        if matching:
            # the matcher writes a fresh configuration every slot — the
            # reconfiguration count *is* iSLIP's cost profile
            self.crossbar.active.clear()
            for u, v in matching:
                self.crossbar.active.establish(u, v)
            self.crossbar.reconfigurations += 1
            ins, outs = np.array(matching).T
            path_ps = self.crossbar.path_latency_ps()
            for _, _, _, done in self._drain_slot(ins, outs, t):
                for dm in done:
                    self._schedule_delivery(dm, path_ps)
        if self._phase_remaining > 0:
            self.sim.schedule(
                params.slot_ps, self._slot_tick, gen, priority=Priority.FABRIC
            )
