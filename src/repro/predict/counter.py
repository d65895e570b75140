"""The usage-counter predictor.

Paper, Section 3.2: *"A different predictor can be implemented by
associating a counter with each connection in the working set.  This
counter is reset to zero every time that connection is used and is
incremented every time another connection is used.  When the counter
reaches a certain threshold, the connection is evicted ... a connection is
evicted if it is not used while other connections are being used, but is
not evicted if the application is in a computation phase, where no
communication takes place."*

Implemented with a single global use stamp: each use increments the global
counter and records the connection's stamp; a latched connection's
"counter" is ``global - stamp``, so eviction checks are O(latched) only
when other traffic actually flows — exactly the computation-phase immunity
the paper wants.
"""

from __future__ import annotations

from ..errors import ConfigurationError
from ..types import Connection
from .base import Predictor

__all__ = ["CounterPredictor"]


class CounterPredictor(Predictor):
    """Evict after ``threshold`` uses of *other* connections."""

    def __init__(self, threshold: int) -> None:
        if threshold <= 0:
            raise ConfigurationError("threshold must be positive")
        self.threshold = threshold
        self._global_uses = 0
        #: last-use stamp of each latched connection
        self._stamps: dict[Connection, int] = {}
        self.evictions = 0
        self.holds = 0

    def on_use(self, u: int, v: int, t_ps: int) -> None:
        self._global_uses += 1
        conn = Connection(u, v)
        if conn in self._stamps:
            self._stamps[conn] = self._global_uses

    def on_empty(self, u: int, v: int, t_ps: int) -> bool:
        self._stamps[Connection(u, v)] = self._global_uses
        self.holds += 1
        return True

    def expired(self, t_ps: int) -> list[Connection]:
        # time plays no role: only other connections' uses age a latch
        out = [
            c
            for c, stamp in self._stamps.items()
            if self._global_uses - stamp >= self.threshold
        ]
        for c in out:
            del self._stamps[c]
        self.evictions += len(out)
        return out

    def on_flush(self, t_ps: int) -> None:
        self._stamps.clear()

    def stats(self) -> dict[str, int]:
        return {
            "holds": self.holds,
            "evictions": self.evictions,
            "latched": len(self._stamps),
            "global_uses": self._global_uses,
        }
