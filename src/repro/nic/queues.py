"""Virtual output queues (VOQs).

The paper's NIC: *"The output buffer is used to implement N logical queues,
one for each destination."*  Keeping one logical queue per destination is
what lets a single NIC present its full communication demand to the
scheduler as the N-bit request vector ``R_u`` with no head-of-line
blocking on the request plane.

:class:`VirtualOutputQueues` stores the per-destination FIFOs of
:class:`~repro.types.Message` objects plus a NumPy byte-count vector that
the network models use for vectorised request computation.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError, InvariantError
from ..types import Message

__all__ = ["DrainedMessage", "VirtualOutputQueues"]


@dataclass(slots=True, frozen=True)
class DrainedMessage:
    """A message whose final byte just left the source NIC."""

    message: Message
    start_ps: int  # when its first byte left
    finish_ps: int  # when its last byte left


class VirtualOutputQueues:
    """N logical FIFO queues on the output side of one NIC."""

    __slots__ = ("n", "src", "_queues", "bytes_pending")

    def __init__(self, n: int, src: int) -> None:
        if not 0 <= src < n:
            raise ConfigurationError(f"source {src} out of range for {n} ports")
        self.n = n
        self.src = src
        #: per-destination FIFOs, created on a destination's first enqueue
        #: (most of an n-port NIC's n queues never see a message)
        self._queues: list[deque[Message] | None] = [None] * n
        #: bytes not yet transmitted, per destination (authoritative)
        self.bytes_pending = np.zeros(n, dtype=np.int64)

    def enqueue(self, msg: Message) -> None:
        """Append a message to its destination's logical queue."""
        if msg.src != self.src:
            raise ConfigurationError(
                f"message from {msg.src} enqueued at NIC {self.src}"
            )
        q = self._queues[msg.dst]
        if q is None:
            q = self._queues[msg.dst] = deque()
        q.append(msg)
        self.bytes_pending[msg.dst] += msg.size

    def head(self, dst: int) -> Message | None:
        q = self._queues[dst]
        return q[0] if q else None

    def drain(
        self, dst: int, max_bytes: int, start_ps: int, byte_ps: int = 0
    ) -> tuple[int, list[DrainedMessage]]:
        """Transmit up to ``max_bytes`` towards ``dst`` starting at ``start_ps``.

        Consecutive messages to the same destination share the transfer
        window back-to-back (the established pipe is a DMA channel, so there
        is no per-message framing cost).  Bytes stream at ``byte_ps``
        picoseconds per byte, so a message completing after ``m`` bytes of
        the window gets ``finish_ps = start_ps + m * byte_ps``; messages
        not yet injected at their would-be start position are not drained.

        Returns the bytes actually moved and the messages completed within
        the window.
        """
        if max_bytes < 0:
            raise ConfigurationError("cannot drain a negative byte budget")
        q = self._queues[dst]
        if not q:
            return 0, []
        if max_bytes:
            # the common mid-message slot: an injected head outlasts the
            # whole budget, so nothing completes and the deque stays put
            msg = q[0]
            if msg.inject_ps <= start_ps and msg.remaining > max_bytes:
                if msg.start_ps < 0:
                    msg.start_ps = start_ps
                msg.remaining -= max_bytes
                self.bytes_pending[dst] -= max_bytes
                return max_bytes, []
        moved = 0
        done: list[DrainedMessage] = []
        while q and moved < max_bytes:
            msg = q[0]
            if msg.inject_ps > start_ps + moved * byte_ps:
                break  # not yet available to the DMA engine
            if msg.start_ps < 0:
                msg.start_ps = start_ps + moved * byte_ps
            take = min(msg.remaining, max_bytes - moved)
            msg.remaining -= take
            moved += take
            if msg.remaining == 0:
                q.popleft()
                done.append(
                    DrainedMessage(
                        message=msg,
                        start_ps=msg.start_ps,
                        finish_ps=start_ps + moved * byte_ps,
                    )
                )
        self.bytes_pending[dst] -= moved
        if self.bytes_pending[dst] < 0:  # pragma: no cover
            raise InvariantError("queue byte accounting went negative")
        return moved, done

    def purge(self, dst: int | None = None) -> list[Message]:
        """Remove every queued message (for ``dst``, or all destinations).

        Fault recovery uses this when a link dies: the messages can never
        be transmitted, so they leave the queues and are accounted as
        explicit drops by the caller.  Returns the removed messages (some
        may be partially transmitted — ``remaining < size``); the byte
        counters are cleaned up.
        """
        targets = range(self.n) if dst is None else (dst,)
        removed: list[Message] = []
        for v in targets:
            q = self._queues[v]
            while q:
                msg = q.popleft()
                self.bytes_pending[v] -= msg.remaining
                removed.append(msg)
            if self.bytes_pending[v] != 0:  # pragma: no cover - defensive
                raise InvariantError(
                    f"queue ({self.src}->{v}) byte counter "
                    f"{self.bytes_pending[v]} nonzero after purge"
                )
        return removed

    def check_invariants(self) -> None:
        """Verify byte counters match the per-message remainders (test hook)."""
        for dst, q in enumerate(self._queues):
            actual = sum(m.remaining for m in q) if q else 0
            if actual != self.bytes_pending[dst]:
                raise InvariantError(
                    f"queue ({self.src}->{dst}) bytes {self.bytes_pending[dst]} "
                    f"!= sum of remainders {actual}"
                )
