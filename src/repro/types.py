"""Core value types shared across the repro library.

The fundamental objects of the paper's system model are:

* a **port** — an integer in ``[0, N)`` identifying one NIC (the paper's
  processors are numbered the same way on the input and output side of the
  crossbar);
* a **connection** — an ordered pair ``(src, dst)`` of ports, corresponding
  to a ``1`` entry in a configuration matrix ``B``;
* a **message** — a block of bytes queued at a source NIC for one
  destination, transferred over an established connection in DMA fashion.

Time is always an ``int`` number of **picoseconds** (see
:mod:`repro.sim.clock`); sizes are ``int`` bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import ConfigurationError

__all__ = [
    "Connection",
    "DropRecord",
    "Message",
    "MessageRecord",
]


class Connection(NamedTuple):
    """An ordered (source port, destination port) pair.

    A ``Connection`` identifies one potential circuit through the crossbar:
    ``B[src, dst] == 1`` in some configuration matrix means this connection
    is established during the corresponding TDM slot.
    """

    src: int
    dst: int


@dataclass(slots=True)
class Message:
    """One inter-processor message.

    ``Message`` objects are created by traffic patterns and mutated by the
    network models as data moves: ``remaining`` counts bytes that have not
    yet left the source NIC, and ``start_ps`` is when the first of them
    left (``-1`` until then).

    Attributes
    ----------
    src, dst:
        Source and destination ports.
    size:
        Message length in bytes (must be positive).
    inject_ps:
        Time at which the message becomes available in the source NIC's
        logical queue.
    seq:
        A per-run unique sequence number, used for deterministic tie
        breaking and for reporting.
    """

    src: int
    dst: int
    size: int
    inject_ps: int = 0
    seq: int = 0
    remaining: int = field(init=False)
    start_ps: int = field(init=False, default=-1)

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ConfigurationError(f"message size must be positive, got {self.size}")
        if self.src == self.dst:
            raise ConfigurationError("messages to self are not modelled")
        if self.inject_ps < 0:
            raise ConfigurationError("inject time must be non-negative")
        self.remaining = self.size

    @property
    def connection(self) -> Connection:
        """The connection this message travels on."""
        return Connection(self.src, self.dst)


@dataclass(slots=True, frozen=True)
class MessageRecord:
    """Immutable completion record for one delivered message.

    Produced by network models when a message's last byte arrives at the
    destination NIC.
    """

    src: int
    dst: int
    size: int
    inject_ps: int
    start_ps: int
    done_ps: int
    seq: int

    @property
    def latency_ps(self) -> int:
        """Time from injection to full delivery."""
        return self.done_ps - self.inject_ps

    @property
    def service_ps(self) -> int:
        """Time from first byte leaving the source to full delivery."""
        return self.done_ps - self.start_ps

    def __post_init__(self) -> None:
        if self.done_ps < self.start_ps or self.start_ps < self.inject_ps:
            raise ConfigurationError(
                "message record times must satisfy inject <= start <= done"
            )


@dataclass(slots=True, frozen=True)
class DropRecord:
    """Explicit give-up record for one undeliverable message.

    Produced by the network models when fault recovery concludes a message
    can never be delivered (dead destination link, unrecoverable scheduler
    fault after the retry budget).  Every injected message ends as exactly
    one :class:`MessageRecord` or one :class:`DropRecord` — the
    conservation property the fault campaigns assert.

    ``sent_bytes`` counts bytes that had already left the source when the
    message was abandoned (they are accounted as lost in flight);
    ``size - sent_bytes`` bytes were never transmitted.
    """

    src: int
    dst: int
    size: int
    sent_bytes: int
    seq: int
    time_ps: int
    reason: str
