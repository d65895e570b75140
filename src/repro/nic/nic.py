"""The network interface card model.

Each processor in the paper's system is a sequential command file fronted
by a NIC whose output buffer holds N logical queues (see
:class:`~repro.nic.queues.VirtualOutputQueues`).  The NIC

* holds its processor's send script: admitted messages waiting, in
  program order, to enter the VOQs or to be sent (the circuit and
  wormhole schemes serve the script's head directly),
* raises its N-bit request signal ``R_u`` towards the scheduler whenever a
  logical queue is non-empty, and
* transmits from queue ``v`` whenever the grant signal ``G_{u,v}`` is up
  (during TDM slots or over a held circuit).

The NIC itself is passive bookkeeping; the network models move the data.
Only the source side is kept here: a delivery is accounted once, in the
run's records and the flow ledger.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from ..sim.trace import NULL_TRACER, Tracer
from ..types import Message
from .queues import VirtualOutputQueues

__all__ = ["Nic"]


class Nic:
    """One network interface: its send script and its output VOQs."""

    __slots__ = ("port", "script", "voqs", "tracer", "clock")

    def __init__(
        self,
        n_ports: int,
        port: int,
        tracer: Tracer | None = None,
        clock: Callable[[], int] | None = None,
    ) -> None:
        self.port = port
        #: admitted messages not yet handed on, in program order
        self.script: deque[Message] = deque()
        self.voqs = VirtualOutputQueues(n_ports, port)
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: simulation-time source for instrumentation timestamps
        self.clock = clock if clock is not None else (lambda: 0)

    def purge_script(self, dst: int | None = None) -> list[Message]:
        """Take the scripted messages to ``dst`` (all, if ``None``) out of
        the script, in script order; the rest keep their order."""
        script = self.script
        if dst is None:
            removed = list(script)
            script.clear()
            return removed
        removed = []
        for _ in range(len(script)):
            msg = script.popleft()
            if msg.dst == dst:
                removed.append(msg)
            else:
                script.append(msg)
        return removed

    def enqueue(self, msg: Message) -> None:
        self.voqs.enqueue(msg)
        if self.tracer.enabled:
            self.tracer.record(
                self.clock(),
                "nic-enqueue",
                port=self.port,
                dst=msg.dst,
                size=msg.size,
                depth=int(self.voqs.bytes_pending[msg.dst]),
            )
