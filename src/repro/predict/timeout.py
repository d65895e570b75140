"""The time-out predictor.

Paper, Section 3.2: *"we will use in our experiments a simple 'time-out'
predictor in which a connection is removed if it is not used for a certain
period of time."*

When a queue drains, the connection stays latched; every subsequent use
refreshes its deadline.  :meth:`expired` returns the latches whose deadline
passed, so an idle connection survives exactly ``timeout_ps`` beyond its
last use.
"""

from __future__ import annotations

from ..errors import ConfigurationError
from ..types import Connection
from .base import Predictor

__all__ = ["TimeoutPredictor"]


class TimeoutPredictor(Predictor):
    """Evict a cached connection after ``timeout_ps`` without use."""

    def __init__(self, timeout_ps: int) -> None:
        if timeout_ps <= 0:
            raise ConfigurationError("timeout must be positive")
        self.timeout_ps = timeout_ps
        #: deadline per latched connection
        self._deadlines: dict[Connection, int] = {}
        self.evictions = 0
        self.holds = 0
        self.fault_evictions = 0

    def on_use(self, u: int, v: int, t_ps: int) -> None:
        conn = Connection(u, v)
        if conn in self._deadlines:
            self._deadlines[conn] = t_ps + self.timeout_ps

    def on_empty(self, u: int, v: int, t_ps: int) -> bool:
        self._deadlines[Connection(u, v)] = t_ps + self.timeout_ps
        self.holds += 1
        return True

    def expired(self, t_ps: int) -> list[Connection]:
        out = [c for c, deadline in self._deadlines.items() if deadline <= t_ps]
        for c in out:
            del self._deadlines[c]
        self.evictions += len(out)
        return out

    def on_flush(self, t_ps: int) -> None:
        self._deadlines.clear()

    def on_fault(self, port: int, t_ps: int) -> None:
        """Fault-aware eviction: drop every deadline touching a dead port."""
        victims = [c for c in self._deadlines if port in c]
        for c in victims:
            del self._deadlines[c]
        self.fault_evictions += len(victims)

    def stats(self) -> dict[str, int]:
        return {
            "holds": self.holds,
            "evictions": self.evictions,
            "fault_evictions": self.fault_evictions,
            "latched": len(self._deadlines),
        }
