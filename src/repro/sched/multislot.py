"""Extension 2 — connections in more than one time slot.

Section 4: *"It is possible to add the capability of inserting a connection
in more than one time slot, thus increasing the bandwidth available to that
connection."*

The mechanism is the ``boost`` mask consulted by the pre-scheduling logic
(:func:`repro.sched.presched.compute_l`): a boosted connection may be
established in the scheduled slot even though ``B*`` already shows it
realised elsewhere.  This module provides the *policy* that decides which
connections deserve boosting.

:class:`QueueDepthBoostPolicy` implements the natural heuristic: when a
source queue holds more than ``threshold_bytes`` for one destination, ask
for up to ``max_slots`` slots for that connection; drop the boost (and let
normal releases shrink the allocation) when the queue falls back under the
threshold.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError
from .scheduler import Scheduler

__all__ = ["QueueDepthBoostPolicy"]


class QueueDepthBoostPolicy:
    """Grant extra TDM slots to connections with deep backlogs."""

    def __init__(
        self,
        scheduler: Scheduler,
        threshold_bytes: int,
        max_slots: int = 2,
    ) -> None:
        if threshold_bytes <= 0:
            raise ConfigurationError("boost threshold must be positive")
        if max_slots < 1:
            raise ConfigurationError("max_slots must be at least 1")
        self.scheduler = scheduler
        self.threshold_bytes = threshold_bytes
        self.max_slots = max_slots

    def update(self, queue_bytes: np.ndarray) -> None:
        """Recompute the boost mask from the current queue depths.

        ``queue_bytes[u, v]`` is the backlog from source ``u`` to
        destination ``v``.  Called by the network model before each SL
        pass (it is cheap: three vectorised comparisons).
        """
        sched = self.scheduler
        deep = queue_bytes > self.threshold_bytes
        counts = sched.registers.presence_counts()
        # boost while the backlog is deep and the allocation is under cap,
        # never a connection that is not requested at all
        sched.set_boost(deep & (counts < self.max_slots) & sched.r_view)

    def release_excess(self, queue_bytes: np.ndarray) -> int:
        """Release surplus slots of connections whose backlog drained.

        Returns the number of released (slot, connection) allocations.
        Normal Table-1 releases only fire when the request line drops; a
        multi-slot connection with a small remaining backlog keeps *all*
        its slots otherwise, so the policy trims allocations above one slot
        once the queue is shallow again.
        """
        sched = self.scheduler
        counts = sched.registers.presence_counts()
        multi = np.argwhere((counts > 1) & (queue_bytes <= self.threshold_bytes))
        released = 0
        for u, v in multi:
            u, v = int(u), int(v)
            slots = sched.registers.slots_of(u, v)
            for slot in slots[1:]:
                if slot in sched.registers.pinned:
                    continue
                sched.registers.release(slot, u, v)
                released += 1
        return released
