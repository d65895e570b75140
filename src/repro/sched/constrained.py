"""Scheduling under non-crossbar fabric constraints.

Section 4: *"For the case of a crossbar fabric, the only constraints on B
are that there is at most one non-zero entry in each row and at most one
non-zero entry in each column.  More complicated constraints may be
derived for fabrics that have limited permutation capabilities (e.g.
multistage networks) or multi-paths from inputs to outputs (e.g. fat tree
fabrics)."*

:class:`ConstrainedScheduler` is the scheduler for those fabrics: it keeps
the whole Figure-2 organisation (register file, B*, TDM counter, request
latches, priority rotation) and the whole pass of
:meth:`~repro.sched.scheduler.Scheduler.sl_pass`, and overrides only the
step that evaluates the L cells: the SL array's port-availability
wavefront becomes a greedy feasibility check against a **fabric constraint**
object — anything with ``is_realizable(config) -> bool``, e.g.
:class:`repro.fabric.multistage.OmegaNetwork` (link-disjoint routes) or
any :class:`repro.topo.Topology`, whose predicate is per-hop trunk
capacity along its routes; :func:`repro.topo.binary_fat_tree` builds the
tapered fat tree.  Candidates are visited in the same rotated row-major
order as the SL array, releases free resources for later candidates, and
an establish is accepted only if the slot configuration stays
realisable, so every invariant of the crossbar scheduler carries over.
:func:`partition` is the same greedy rule applied offline: it splits one
configuration into realisable passes.

(The crossbar itself corresponds to the trivial constraint that
:class:`~repro.fabric.config.ConfigMatrix` already enforces —
``Topology.single_switch(n)`` admits every partial permutation.  For it
the systolic SL array of :mod:`repro.sched.slarray` is the efficient
implementation; this class is the generalisation, not a replacement.)
"""

from __future__ import annotations

from typing import Protocol

import numpy as np

from ..errors import ConfigurationError
from ..fabric.config import ConfigMatrix
from ..params import SystemParams
from ..types import Connection
from .priority import RotationPolicy
from .scheduler import Scheduler
from .slarray import PassOutcome, Toggle

__all__ = ["FabricConstraint", "ConstrainedScheduler", "partition"]


class FabricConstraint(Protocol):
    """Anything that can veto a slot configuration."""

    def is_realizable(self, config: ConfigMatrix) -> bool: ...


def partition(
    constraint: FabricConstraint, config: ConfigMatrix
) -> list[ConfigMatrix]:
    """Greedy split of ``config`` into passes ``constraint`` realises.

    The fabric analogue of raising the multiplexing degree.  Each
    connection, in order, joins the current pass; if the pass is then
    unrealisable the connection leaves it again and waits for the next.
    """
    remaining = list(config.connections())
    passes: list[ConfigMatrix] = []
    while remaining:
        taken = ConfigMatrix(config.n)
        leftover: list[Connection] = []
        for u, v in remaining:
            taken.establish(u, v)
            if not constraint.is_realizable(taken):
                taken.release(u, v)
                leftover.append(Connection(u, v))
        if len(leftover) == len(remaining):
            raise ConfigurationError(
                f"the fabric cannot realise connection {tuple(remaining[0])} alone"
            )
        passes.append(taken)
        remaining = leftover
    return passes


class ConstrainedScheduler(Scheduler):
    """A scheduler whose insertions respect an arbitrary fabric predicate."""

    def __init__(
        self,
        params: SystemParams,
        k: int,
        constraint: FabricConstraint,
        rotation: RotationPolicy | None = None,
    ) -> None:
        super().__init__(params, k, rotation)
        self.constraint = constraint

    def _evaluate(
        self, slot: int, cfg: ConfigMatrix, rows: np.ndarray, cols: np.ndarray
    ) -> PassOutcome:
        """Greedy feasibility check in place of the SL array's wavefront.

        A rotation is drawn only when L holds a cell.
        """
        outcome = PassOutcome()
        if len(rows):
            n = self.n
            a, b = self.rotation.next_rotation()
            order = np.lexsort(((cols - b) % n, (rows - a) % n))
            for u, v in zip(rows[order].tolist(), cols[order].tolist()):
                if cfg.b[u, v]:
                    # release — always feasible (removing cannot violate)
                    self.registers.release(slot, u, v)
                    outcome.toggles.append(Toggle(u, v, establish=False))
                    self.counters.inc("releases")
                    continue
                if cfg.output_of(u) is not None or cfg.input_of(v) is not None:
                    outcome.blocked += 1
                    continue
                self.registers.establish(slot, u, v)
                if self.constraint.is_realizable(cfg):
                    outcome.toggles.append(Toggle(u, v, establish=True))
                    self.counters.inc("establishes")
                else:
                    self.registers.release(slot, u, v)
                    outcome.blocked += 1
                    self.counters.inc("blocked_by_fabric")
        return outcome

    def _rotation_draws(self, cells: int) -> int:
        return 1 if cells else 0
