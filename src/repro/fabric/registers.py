"""The configuration register file.

Figure 2 of the paper: the scheduler maintains ``K`` configuration matrices
``B(0) .. B(K-1)``, one per TDM slot, plus the aggregate matrix
``B* = B(0) | ... | B(K-1)`` of *all* connections currently established in
any slot.  ``B*`` feeds the pre-scheduling logic (Table 1).

With the multi-slot extension (Section 4, extension 2) a connection may be
present in more than one slot, so ``B*`` is maintained from an integer
*count* matrix rather than recomputed by OR-ing K matrices on every pass.

Two fault conditions of :mod:`repro.faults` live at this layer:

* a **stuck** slot no longer accepts writes — establishes, releases, loads
  and clears silently have no effect, exactly as stuck register cells
  would behave in hardware (the frozen configuration keeps being applied
  at its TDM turn until the fault is detected);
* a **quarantined** slot has been taken out of service by the management
  plane after detection: its contribution is masked out of ``B*``, the TDM
  counter and the dynamic scheduler skip it, and loads into it are errors.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from ..errors import ConfigurationError, InvariantError, SchedulingError
from ..types import Connection
from .config import ConfigMatrix

__all__ = ["ConfigRegisterFile"]


class ConfigRegisterFile:
    """``K`` slot configurations plus incrementally maintained ``B*``."""

    __slots__ = (
        "n", "k", "slots", "_counts", "pinned", "stuck", "quarantined", "version"
    )

    def __init__(self, n: int, k: int) -> None:
        if k < 1:
            raise ConfigurationError(f"multiplexing degree must be >= 1, got {k}")
        self.n = n
        self.k = k
        self.slots: list[ConfigMatrix] = [ConfigMatrix(n) for _ in range(k)]
        self._counts = np.zeros((n, n), dtype=np.int16)
        #: slots the dynamic scheduler must not touch (preloaded patterns)
        self.pinned: set[int] = set()
        #: slots whose physical cells no longer accept writes (fault model)
        self.stuck: set[int] = set()
        #: slots taken out of service after fault detection
        self.quarantined: set[int] = set()
        #: bumped by every mutator, so a reader can tell that nothing in
        #: the file (slots, B*, pinned, stuck, quarantined) has changed
        self.version = 0

    # -- slot access ----------------------------------------------------------

    def __getitem__(self, slot: int) -> ConfigMatrix:
        self._check_slot(slot)
        return self.slots[slot]

    def __iter__(self) -> Iterator[ConfigMatrix]:
        return iter(self.slots)

    def _check_slot(self, slot: int) -> None:
        if not 0 <= slot < self.k:
            raise SchedulingError(
                f"slot {slot} out of range for K={self.k} "
                f"(valid slots are 0..{self.k - 1})"
            )

    # -- mutation (keeps B* in sync) -------------------------------------------

    def establish(self, slot: int, u: int, v: int) -> None:
        """Establish (u, v) in ``slot`` and bump its presence count."""
        self._check_slot(slot)
        self.version += 1
        if slot in self.quarantined:
            raise SchedulingError(
                f"cannot establish ({u} -> {v}) in quarantined slot {slot}"
            )
        if slot in self.stuck:
            return  # stuck cells ignore writes
        self.slots[slot].establish(u, v)
        self._counts[u, v] += 1

    def release(self, slot: int, u: int, v: int) -> None:
        """Release (u, v) from ``slot`` and decrement its presence count."""
        self._check_slot(slot)
        self.version += 1
        if slot in self.stuck:
            return  # stuck cells ignore writes
        self.slots[slot].release(u, v)
        self._counts[u, v] -= 1
        if self._counts[u, v] < 0:  # pragma: no cover - guarded by release above
            raise InvariantError(
                f"B* count went negative for ({u} -> {v}) in slot {slot}"
            )

    def toggle(self, slot: int, u: int, v: int) -> bool:
        """Apply a scheduler T signal to (slot, u, v); True if now established.

        On a stuck slot the toggle silently has no effect (the write is
        lost in the faulty hardware) and the current state is returned.
        """
        self._check_slot(slot)
        if slot in self.stuck:
            return bool(self.slots[slot].b[u, v])
        if self.slots[slot].b[u, v]:
            self.release(slot, u, v)
            return False
        self.establish(slot, u, v)
        return True

    def load(self, slot: int, config: ConfigMatrix, *, pin: bool = False) -> None:
        """Overwrite ``slot`` with ``config`` (a preload directive).

        ``pin=True`` marks the slot as owned by compiled communication so
        the dynamic scheduler will neither add to nor release from it.
        """
        self._check_slot(slot)
        self.version += 1
        if slot in self.quarantined:
            raise SchedulingError(
                f"cannot load a configuration into quarantined slot {slot}"
            )
        if slot in self.stuck:
            return  # the directive is lost in the faulty hardware
        old = self.slots[slot]
        for u, v in old.connections():
            self._counts[u, v] -= 1
        old.load(config)
        for u, v in old.connections():
            self._counts[u, v] += 1
        if pin:
            self.pinned.add(slot)
        else:
            self.pinned.discard(slot)

    def clear_slot(self, slot: int) -> None:
        """Empty one slot (and unpin it)."""
        self._check_slot(slot)
        self.version += 1
        if slot in self.quarantined:
            return  # already out of service; its counts are masked out
        if slot in self.stuck:
            return  # the directive is lost in the faulty hardware
        for u, v in self.slots[slot].connections():
            self._counts[u, v] -= 1
        self.slots[slot].clear()
        self.pinned.discard(slot)

    def flush(self) -> None:
        """Empty every slot — the compiler's flush-all directive."""
        for s in range(self.k):
            if s not in self.quarantined:
                self.clear_slot(s)

    # -- fault management (repro.faults) ----------------------------------------

    def set_stuck(self, slot: int, stuck: bool = True) -> None:
        """Mark a slot's register cells as (no longer) accepting writes."""
        self._check_slot(slot)
        self.version += 1
        if stuck:
            self.stuck.add(slot)
        else:
            self.stuck.discard(slot)

    def quarantine(self, slot: int) -> list[Connection]:
        """Take ``slot`` out of service after a detected fault.

        Its connections are masked out of ``B*`` (the physical cells may
        still be frozen with garbage, but the TDM counter will never apply
        the slot again), it stops being pinned or dynamically schedulable,
        and loads into it raise.  Returns the connections that were
        established in the slot so the caller can trigger re-establishment
        in healthy slots.
        """
        self._check_slot(slot)
        self.version += 1
        if slot in self.quarantined:
            return []
        evicted = list(self.slots[slot].connections())
        for u, v in evicted:
            self._counts[u, v] -= 1
        self.quarantined.add(slot)
        self.pinned.discard(slot)
        return evicted

    def unpin(self, slot: int) -> None:
        """Hand a pinned slot back to the dynamic scheduler (keeps contents)."""
        self._check_slot(slot)
        self.version += 1
        self.pinned.discard(slot)

    # -- queries ----------------------------------------------------------------

    @property
    def b_star(self) -> np.ndarray:
        """Boolean matrix of connections established in *any* in-service slot."""
        return self._counts > 0

    def presence_counts(self) -> np.ndarray:
        """How many slots each connection occupies (multi-slot extension)."""
        return self._counts.copy()

    def slot_of(self, u: int, v: int) -> int | None:
        """The lowest in-service slot holding (u, v), or None."""
        for s, cfg in enumerate(self.slots):
            if s not in self.quarantined and cfg.b[u, v]:
                return s
        return None

    def slots_of(self, u: int, v: int) -> list[int]:
        """All in-service slots holding (u, v)."""
        return [
            s
            for s, cfg in enumerate(self.slots)
            if s not in self.quarantined and cfg.b[u, v]
        ]

    def active_slots(self) -> list[int]:
        """Indices of non-empty in-service slots (TDM counter input)."""
        return [
            s
            for s, cfg in enumerate(self.slots)
            if s not in self.quarantined and not cfg.is_empty
        ]

    def dynamic_slots(self) -> list[int]:
        """Slots the dynamic scheduler is allowed to modify."""
        return [
            s
            for s in range(self.k)
            if s not in self.pinned and s not in self.quarantined
        ]

    def check_invariants(self) -> None:
        """Recompute B* from scratch and compare with the counts (test hook).

        Quarantined slots are excluded: their physical contents are defined
        to be out of service, so they no longer contribute to ``B*``.
        """
        fresh = np.zeros((self.n, self.n), dtype=np.int16)
        for s, cfg in enumerate(self.slots):
            cfg.check_invariants()
            if s not in self.quarantined:
                fresh += cfg.b
        if not np.array_equal(fresh, self._counts):
            bad = np.argwhere(fresh != self._counts)
            u, v = (int(bad[0][0]), int(bad[0][1])) if len(bad) else (-1, -1)
            raise InvariantError(
                f"B* count matrix out of sync with slot matrices at "
                f"connection ({u} -> {v}): counted {int(self._counts[u, v])}, "
                f"recomputed {int(fresh[u, v])}"
            )

    def __repr__(self) -> str:
        occ = [len(cfg) for cfg in self.slots]
        return f"ConfigRegisterFile(n={self.n}, k={self.k}, occupancy={occ})"
