"""The network interface card model.

Each processor in the paper's system is fronted by a NIC with an input
buffer and an output buffer of N logical queues (see
:class:`~repro.nic.queues.VirtualOutputQueues`).  The NIC

* raises its N-bit request signal ``R_u`` towards the scheduler whenever a
  logical queue is non-empty,
* transmits from queue ``v`` whenever the grant signal ``G_{u,v}`` is up
  (during TDM slots or over a held circuit), and
* receives data into its input buffer with a single-cycle (10 ns) delay.

The NIC itself is passive bookkeeping; the network models move the data.
"""

from __future__ import annotations

from typing import Callable

from ..params import SystemParams
from ..sim.trace import NULL_TRACER, Tracer
from ..types import Message, MessageRecord
from .queues import VirtualOutputQueues

__all__ = ["Nic"]


class Nic:
    """One network interface: output VOQs plus receive-side accounting."""

    __slots__ = (
        "params",
        "port",
        "voqs",
        "bytes_received",
        "records",
        "tracer",
        "clock",
    )

    def __init__(
        self,
        params: SystemParams,
        port: int,
        tracer: Tracer | None = None,
        clock: Callable[[], int] | None = None,
    ) -> None:
        self.params = params
        self.port = port
        self.voqs = VirtualOutputQueues(params.n_ports, port)
        self.bytes_received = 0
        #: completed deliveries *into* this NIC
        self.records: list[MessageRecord] = []
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: simulation-time source for instrumentation timestamps
        self.clock = clock if clock is not None else (lambda: 0)

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

    def receive(self, record: MessageRecord) -> None:
        """Account a completed delivery (last byte arrived)."""
        self.bytes_received += record.size
        self.records.append(record)
        if self.tracer.enabled:
            self.tracer.record(
                record.done_ps, "nic-rx", port=self.port, src=record.src, bytes=record.size
            )
