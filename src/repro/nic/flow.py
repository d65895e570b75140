"""End-to-end flow-control accounting.

Section 2 of the paper: with dedicated pipes *"no congestion control is
needed, no routing or control information has to be included with the data,
no intermediate buffering and routing is needed and only end-to-end flow
control is required."*

This module implements that end-to-end accounting: a
:class:`FlowLedger` tracks bytes that have left each source and bytes
that have arrived at each destination, and can verify conservation at any
time.  All network models feed it, which gives the test suite a single
invariant — *no byte is created, lost, or duplicated* — that holds across
wormhole, circuit, and TDM switching.

Fault campaigns (:mod:`repro.faults`) extend the invariant rather than
suspend it: a byte that cannot be delivered must be **explicitly**
surrendered, either as *dropped* (given up before leaving the source, e.g.
the destination link died) or as *lost* (transmitted, then destroyed in
flight or discarded as part of a truncated message).  Conservation then
reads::

    offered == sent + dropped          (source side)
    sent    == delivered + lost        (sink side)

so silent loss and silent duplication both still fail loudly.
"""

from __future__ import annotations

import numpy as np

from ..errors import InvariantError

__all__ = ["FlowLedger"]


class FlowLedger:
    """Byte conservation ledger over all (src, dst) pairs."""

    __slots__ = ("n", "sent", "delivered", "offered", "dropped", "lost")

    def __init__(self, n: int) -> None:
        self.n = n
        #: bytes that left each source NIC, per destination
        self.sent = np.zeros((n, n), dtype=np.int64)
        #: bytes that arrived at each destination NIC, per source
        self.delivered = np.zeros((n, n), dtype=np.int64)
        #: bytes enqueued by the traffic pattern
        self.offered = np.zeros((n, n), dtype=np.int64)
        #: bytes explicitly given up before transmission (fault recovery)
        self.dropped = np.zeros((n, n), dtype=np.int64)
        #: bytes transmitted but explicitly written off (truncated messages)
        self.lost = np.zeros((n, n), dtype=np.int64)

    def offer(self, src: int, dst: int, n_bytes: int) -> None:
        self.offered[src, dst] += n_bytes

    def send(self, src: int, dst: int, n_bytes: int) -> None:
        self.sent[src, dst] += n_bytes
        if self.sent[src, dst] + self.dropped[src, dst] > self.offered[src, dst]:
            raise InvariantError(
                f"({src}->{dst}) sent {self.sent[src, dst]} + dropped "
                f"{self.dropped[src, dst]} bytes but only "
                f"{self.offered[src, dst]} were offered"
            )

    def deliver(self, src: int, dst: int, n_bytes: int) -> None:
        self.delivered[src, dst] += n_bytes
        if self.delivered[src, dst] > self.sent[src, dst]:
            raise InvariantError(
                f"({src}->{dst}) delivered {self.delivered[src, dst]} bytes "
                f"but only {self.sent[src, dst]} were sent"
            )

    def drop(self, src: int, dst: int, n_bytes: int) -> None:
        """Explicitly surrender ``n_bytes`` that were never transmitted."""
        self.dropped[src, dst] += n_bytes
        if self.dropped[src, dst] + self.sent[src, dst] > self.offered[src, dst]:
            raise InvariantError(
                f"({src}->{dst}) dropped {self.dropped[src, dst]} + sent "
                f"{self.sent[src, dst]} bytes but only "
                f"{self.offered[src, dst]} were offered"
            )

    def lose(self, src: int, dst: int, n_bytes: int) -> None:
        """Write off ``n_bytes`` that were transmitted but never delivered.

        Used when a partially-transmitted message is abandoned: the bytes
        already on the wire will never complete a message, so the receiver
        discards them.  Validated against ``sent`` only at
        :meth:`assert_conserved` time because the write-off may precede the
        in-flight segment's own ``send`` accounting.
        """
        self.lost[src, dst] += n_bytes

    @property
    def in_flight(self) -> int:
        """Bytes sent but not yet delivered or written off."""
        return int(self.sent.sum() - self.delivered.sum() - self.lost.sum())

    @property
    def total_delivered(self) -> int:
        return int(self.delivered.sum())

    def assert_conserved(self) -> None:
        """At end of run: every offered byte was delivered or explicitly
        surrendered — never silently created, lost, or duplicated."""
        if not np.array_equal(self.offered, self.sent + self.dropped):
            missing = int((self.offered - self.sent - self.dropped).sum())
            raise InvariantError(
                f"{missing} offered bytes neither sent nor explicitly dropped"
            )
        if not np.array_equal(self.sent, self.delivered + self.lost):
            raise InvariantError(
                f"{self.in_flight} bytes lost in flight without accounting"
            )
