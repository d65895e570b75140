"""The contention-free ideal network.

Used as the efficiency denominator for Figures 4 and 5: the fastest any
switch could complete a phase is bounded below by its **bottleneck port** —
each NIC serialises its outgoing bytes onto one link and its incoming bytes
off one link, so a phase of traffic ``T`` needs at least

    LB(T) = max_port max(bytes_out(port), bytes_in(port)) * byte_time

:func:`bottleneck_lower_bound_ps` computes that bound;
:class:`IdealNetwork` is a degenerate network model that "runs" each phase
in exactly the bound (useful for sanity tests: every real scheme must be
at least as slow, so efficiencies stay in (0, 1]).
"""

from __future__ import annotations

import numpy as np

from ..params import SystemParams
from ..sim.trace import Tracer
from ..traffic.base import TrafficPhase
from ..types import MessageRecord
from .base import BaseNetwork

__all__ = ["bottleneck_lower_bound_ps", "IdealNetwork"]


def bottleneck_lower_bound_ps(phase: TrafficPhase, params: SystemParams) -> int:
    """The bottleneck-port serialisation bound for one phase, in ps."""
    n = params.n_ports
    out_bytes = np.zeros(n, dtype=np.int64)
    in_bytes = np.zeros(n, dtype=np.int64)
    for m in phase.messages:
        out_bytes[m.src] += m.size
        in_bytes[m.dst] += m.size
    bottleneck = int(max(out_bytes.max(), in_bytes.max()))
    return bottleneck * params.byte_ps


class IdealNetwork(BaseNetwork):
    """Delivers every phase in exactly its bottleneck lower bound."""

    scheme = "ideal"
    #: the phase lasts its full bottleneck bound, past the last delivery
    stop_when_drained = False

    def __init__(self, params: SystemParams, tracer: Tracer | None = None) -> None:
        super().__init__(params, tracer)

    def _execute_phase(self, phase: TrafficPhase) -> None:
        bound = bottleneck_lower_bound_ps(phase, self.params)
        start = self.sim.now
        end = start + bound
        # spread per-source deliveries uniformly across the window so the
        # records carry sensible (if optimistic) latencies; messages
        # injected mid-phase start no earlier than their injection
        per_src_sent: dict[int, int] = {}
        for msg in phase.messages:
            offset = per_src_sent.get(msg.src, 0)
            per_src_sent[msg.src] = offset + msg.size
            start_ps = max(start + offset * self.params.byte_ps, msg.inject_ps)
            done_ps = start_ps + msg.size * self.params.byte_ps
            self.ledger.send(msg.src, msg.dst, msg.size)
            msg.remaining = 0
            record = MessageRecord(
                src=msg.src,
                dst=msg.dst,
                size=msg.size,
                inject_ps=msg.inject_ps,
                start_ps=start_ps,
                done_ps=done_ps,
                seq=msg.seq,
            )
            self.sim.schedule_at(record.done_ps, self._deliver, record)
        # the phase still lasts at least its bottleneck bound
        self.sim.schedule_at(end, lambda: None)
        self.sim.run()
