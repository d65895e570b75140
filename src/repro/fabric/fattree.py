"""Fat-tree fabric constraints.

Section 4 of the paper lists *"a fat tree organization"* among the fabrics
the switching system could use and notes that such fabrics have
*"multi-paths from inputs to outputs"*, which changes the constraint a
single configuration must satisfy: instead of the crossbar's
one-connection-per-port rule, a configuration is realisable iff no tree
edge is asked to carry more connections than its **capacity** (the number
of parallel links at that level — the "fatness").

:class:`FatTree` models a binary fat-tree over ``N = 2^m`` leaves.  The
edge above a subtree of size ``s = 2**level`` has capacity
``max(1, s // taper)`` (:meth:`FatTree.edge_capacity`): ``taper=1`` is the classic full-bisection fat-tree (every permutation
realisable), larger tapers thin the upper levels the way cost-reduced
installations do.  The class provides the realisability predicate the
pre-scheduling logic would use, the per-edge load analysis, a lower bound
on the multiplexing degree a connection set needs, and a greedy partition
into realisable passes (the fat-tree analogue of raising the TDM degree).
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError
from ..types import Connection
from .config import ConfigMatrix
from .multistage import is_power_of_two

__all__ = ["FatTree"]


class FatTree:
    """A binary fat-tree over ``n = 2^m`` leaves with tapered capacities."""

    def __init__(self, n: int, taper: int = 1) -> None:
        if not is_power_of_two(n) or n < 2:
            raise ConfigurationError(f"fat-tree needs N = 2^m >= 2 leaves, got {n}")
        if taper < 1:
            raise ConfigurationError("taper must be >= 1")
        self.n = n
        self.m = int(np.log2(n))
        self.taper = taper

    # -- structure ----------------------------------------------------------------

    def subtree_of(self, leaf: int, level: int) -> int:
        """Index of the size-2^level subtree containing ``leaf``."""
        if not 0 <= leaf < self.n:
            raise ConfigurationError(f"leaf {leaf} out of range")
        if not 1 <= level <= self.m:
            raise ConfigurationError(f"level {level} out of range")
        return leaf >> level

    def edge_capacity(self, level: int) -> int:
        """Parallel links on the edge above a size-2^level subtree.

        The root has no upward edge, so ``level`` ranges over
        ``1 .. m-1``; a full-bisection tree (taper 1) gives ``2^level``.
        """
        if not 1 <= level < self.m:
            raise ConfigurationError(f"no upward edge at level {level}")
        return max(1, (1 << level) // self.taper)

    def crossing_level(self, u: int, v: int) -> int:
        """Size exponent of the smallest subtree containing both endpoints.

        A connection's route climbs to this level and back down; it loads
        the upward edges of every strictly smaller subtree on both sides.
        A self-connection (a loopback at the leaf) crosses nothing and
        returns 0.
        """
        return (u ^ v).bit_length()

    # -- load analysis ----------------------------------------------------------------

    def edge_loads(self, conns) -> dict[tuple[int, int, str], int]:
        """Connections on each (level, subtree, direction) link.

        Links are full duplex: a connection loads the **up** direction of
        the edges on its source's side of the tree and the **down**
        direction on its destination's side.
        """
        loads: dict[tuple[int, int, str], int] = {}
        for u, v in conns:
            for key in self._route_links(u, v):
                loads[key] = loads.get(key, 0) + 1
        return loads

    def _route_links(self, u: int, v: int) -> list[tuple[int, int, str]]:
        top = self.crossing_level(u, v)
        keys: list[tuple[int, int, str]] = []
        for level in range(1, min(top, self.m)):
            keys.append((level, self.subtree_of(u, level), "up"))
            keys.append((level, self.subtree_of(v, level), "down"))
        return keys

    def is_realizable(self, config: ConfigMatrix) -> bool:
        """Can the configuration's connections coexist on this tree?"""
        return not self.overloaded_edges(config)

    def overloaded_edges(
        self, config: ConfigMatrix
    ) -> list[tuple[int, int, str]]:
        """Links whose load exceeds capacity, as (level, subtree, dir)."""
        loads = self.edge_loads(config.connections())
        return sorted(
            key
            for key, load in loads.items()
            if load > self.edge_capacity(key[0])
        )

    def required_degree(self, conns) -> int:
        """Lower bound on TDM passes: the most oversubscribed edge's ratio."""
        conns = list(conns)
        if not conns:
            return 0
        loads = self.edge_loads(conns)
        worst = 1
        for (level, _, _), load in loads.items():
            need = -(-load // self.edge_capacity(level))
            worst = max(worst, need)
        return worst

    # -- partitioning -------------------------------------------------------------------

    def partition(self, config: ConfigMatrix) -> list[ConfigMatrix]:
        """Greedy split into realisable passes (multiplexed fat-tree use)."""
        remaining = list(config.connections())
        passes: list[ConfigMatrix] = []
        while remaining:
            taken = ConfigMatrix(self.n)
            loads: dict[tuple[int, int, str], int] = {}
            leftover: list[Connection] = []
            for u, v in remaining:
                keys = self._route_links(u, v)
                fits_tree = all(
                    loads.get(k, 0) + 1 <= self.edge_capacity(k[0]) for k in keys
                )
                fits_ports = (
                    taken.output_of(u) is None and taken.input_of(v) is None
                )
                if fits_tree and fits_ports:
                    for k in keys:
                        loads[k] = loads.get(k, 0) + 1
                    taken.establish(u, v)
                else:
                    leftover.append(Connection(u, v))
            passes.append(taken)
            remaining = leftover
        return passes
