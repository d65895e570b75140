"""The TDM slot counter.

Figure 2 of the paper: *"The TDM counter ... counts from 0 to K-1, but
skips a particular count t if the corresponding matrix B(t) is all zeros.
This feature skips over empty configurations and allows the scheduler to
reduce the multiplexing degree by controlling the content of the
configuration registers."*

The counter therefore realises an *adaptive* multiplexing degree: the
effective degree at any moment equals the number of non-empty
configurations, so a working set that fits in two configurations gets each
of them every ~200 ns even when K = 8 registers exist.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..fabric.registers import ConfigRegisterFile

__all__ = ["TdmCounter"]


@dataclass
class TdmCounter:
    """Cyclic counter over the non-empty slots of a register file."""

    registers: ConfigRegisterFile
    current: int = 0
    advances: int = field(default=0, init=False)
    idle_ticks: int = field(default=0, init=False)

    def advance(self, pending: np.ndarray | None = None) -> int | None:
        """Move to the next useful slot and return its index.

        A slot is skipped when its configuration is all zeros (the paper's
        rule).  When ``pending`` — the scheduler's request matrix — is
        supplied, slots whose established connections have no pending
        traffic are skipped too: the scheduler holds both ``B(t)`` and
        ``R``, so ANDing them is free in hardware and stops cached-but-idle
        configurations from consuming slot time.

        Returns ``None`` (and stays put) when no slot qualifies — the
        fabric simply holds no useful connections this slot.
        """
        slot = self._scan(pending, self.current)
        if slot is None:
            self.idle_ticks += 1
            return None
        self.current = slot
        self.advances += 1
        return slot

    def cycle(self, pending: np.ndarray | None = None) -> list[int]:
        """The slots successive :meth:`advance` calls land on, one period.

        While the registers and ``pending`` stay unchanged the useful slots
        are fixed, and each one's successor is the next useful slot in
        cyclic index order.  Starting from :attr:`current`, the sequence is
        therefore a pure cycle: it repeats with the length of the returned
        list (empty when no slot qualifies).
        """
        first = self._scan(pending, self.current)
        if first is None:
            return []
        slots = [first]
        while (slot := self._scan(pending, slots[-1])) != first:
            assert slot is not None  # a useful slot always has a successor
            slots.append(slot)
        return slots

    def _scan(self, pending: np.ndarray | None, after: int) -> int | None:
        """The first useful slot after ``after``, in cyclic index order."""
        k = self.registers.k
        quarantined = self.registers.quarantined
        for step in range(1, k + 1):
            candidate = (after + step) % k
            if candidate in quarantined:
                continue  # slot taken out of service by fault management
            cfg = self.registers[candidate]
            if cfg.is_empty:
                continue
            if pending is not None and not np.any(cfg.b & pending):
                continue
            return candidate
        return None
