"""Multistage fabric extension.

The paper's detailed design targets a crossbar, but Section 4 notes that
*"more complicated constraints may be derived for fabrics that have limited
permutation capabilities (e.g. multistage networks)"* and the conclusion
lists extending the design to other fabrics as ongoing work.  This module
implements the two canonical cases:

* :class:`OmegaNetwork` — a blocking, self-routing shuffle-exchange network:
  a configuration is realisable iff the destination-tag routes of all its
  connections are link-disjoint.  This yields the *constraint predicate*
  that would replace the simple one-per-row/column crossbar rule in the
  pre-scheduling logic (:class:`repro.sched.ConstrainedScheduler`), and
  :func:`repro.sched.partition` splits a configuration into
  Omega-realisable passes.
* :class:`BenesNetwork` — a rearrangeably non-blocking network: *every*
  partial permutation is realisable, and the classic looping algorithm
  computes explicit 2x2 switch settings.

Both operate on ``N = 2^m`` ports.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError
from .config import ConfigMatrix

__all__ = ["OmegaNetwork", "BenesNetwork", "is_power_of_two"]


def is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def _check_size(n: int) -> int:
    if not is_power_of_two(n) or n < 2:
        raise ConfigurationError(f"multistage fabrics need N = 2^m >= 2, got {n}")
    return int(np.log2(n))


class OmegaNetwork:
    """An N-port Omega (shuffle-exchange) network of 2x2 switches.

    The network has ``m = log2 N`` stages.  Between stages the wires apply
    a perfect shuffle (rotate the port address left by one bit); each stage
    of N/2 switches can pass straight or crossed.  Routing is by
    destination tag: at stage ``i`` the switch output is selected by bit
    ``m-1-i`` of the destination.
    """

    def __init__(self, n: int) -> None:
        self.n = n
        self.m = _check_size(n)

    def route(self, src: int, dst: int) -> list[tuple[int, int]]:
        """The sequence of (stage, switch-input-line) resources used.

        Returns ``m + 1`` link identifiers: the line entering each stage and
        the final output line.  Two connections conflict iff they share any
        identifier at the same stage.
        """
        if not (0 <= src < self.n and 0 <= dst < self.n):
            raise ConfigurationError(f"ports ({src}, {dst}) out of range")
        links: list[tuple[int, int]] = []
        addr = src
        for stage in range(self.m):
            # perfect shuffle: rotate left
            addr = ((addr << 1) | (addr >> (self.m - 1))) & (self.n - 1)
            # the switch replaces the low bit with the routing bit
            bit = (dst >> (self.m - 1 - stage)) & 1
            addr = (addr & ~1) | bit
            links.append((stage, addr))
        return links

    def is_realizable(self, config: ConfigMatrix) -> bool:
        """Can all connections of ``config`` coexist without link conflicts?"""
        return not self.conflicts(config)

    def conflicts(self, config: ConfigMatrix) -> list[tuple[int, int]]:
        """Stage-link resources demanded by more than one connection."""
        seen: dict[tuple[int, int], int] = {}
        clashes: set[tuple[int, int]] = set()
        for u, v in config.connections():
            for link in self.route(u, v):
                if link in seen and seen[link] != u:
                    clashes.add(link)
                seen[link] = u
        return sorted(clashes)


class BenesNetwork:
    """An N-port Benes network (two back-to-back butterflies sharing a stage).

    Rearrangeably non-blocking: any (partial) permutation can be realised.
    :meth:`route_permutation` runs the recursive looping algorithm and
    returns the settings of every 2x2 switch as nested stage lists.
    """

    def __init__(self, n: int) -> None:
        self.n = n
        self.m = _check_size(n)
        #: number of switch stages: 2*m - 1
        self.n_stages = 2 * self.m - 1

    def is_realizable(self, config: ConfigMatrix) -> bool:
        """Always true for a valid partial permutation (by construction)."""
        config.check_invariants()
        return True

    def route_permutation(self, perm: list[int]) -> list[list[bool]]:
        """Switch settings (True = crossed) realising ``perm``.

        ``perm`` must be a *full* permutation of ``range(n)``.
        """
        if sorted(perm) != list(range(self.n)):
            raise ConfigurationError("route_permutation needs a full permutation")
        stages: list[list[bool]] = [
            [False] * (self.n // 2) for _ in range(self.n_stages)
        ]
        self._route(perm, 0, 0, stages)
        return stages

    # -- recursive looping algorithm ------------------------------------------

    def _route(
        self,
        perm: list[int],
        stage: int,
        offset: int,
        stages: list[list[bool]],
    ) -> None:
        n = len(perm)
        if n == 2:
            # base case: this position holds the single centre-column switch
            stages[stage][offset] = perm[0] == 1
            return
        half = n // 2
        inv = [0] * n
        for i, p in enumerate(perm):
            inv[p] = i

        # 2-colour the inputs with subnet 0 (upper) / 1 (lower) such that the
        # two inputs of every input switch differ and the two outputs of
        # every output switch differ.  The constraint graph is a disjoint
        # union of even cycles, so alternating colours along each cycle
        # always succeeds (this is the classic "looping" argument).
        color = [-1] * n
        for start in range(n):
            if color[start] != -1:
                continue
            i, c = start, 0
            while color[i] == -1:
                color[i] = c
                color[i ^ 1] = 1 - c
                # the switch-mate's output lands in subnet 1-c; the other
                # output of that *output* switch must come from subnet c
                i = inv[perm[i ^ 1] ^ 1]

        upper = [-1] * half
        lower = [-1] * half
        for i, p in enumerate(perm):
            if color[i] == 0:
                upper[i // 2] = p // 2
            else:
                lower[i // 2] = p // 2

        first = stage
        last = len(stages) - 1 - stage
        for s in range(n // 2):
            # straight routing sends the even input line to the upper subnet
            stages[first][offset + s] = color[2 * s] == 1
            stages[last][offset + s] = color[inv[2 * s]] == 1
        self._route(upper, stage + 1, offset, stages)
        self._route(lower, stage + 1, offset + half // 2, stages)

    def verify(self, perm: list[int], stages: list[list[bool]]) -> bool:
        """Simulate the switch settings and check they realise ``perm``."""
        for src in range(self.n):
            if self._trace(src, stages) != perm[src]:
                return False
        return True

    def _trace(self, src: int, stages: list[list[bool]]) -> int:
        """Follow one input through the switch settings to its output."""
        return self._trace_rec(src, stages, 0, 0, self.n)

    def _trace_rec(
        self, pos: int, stages: list[list[bool]], stage: int, offset: int, n: int
    ) -> int:
        if n == 2:
            crossed = stages[stage][offset]
            return pos ^ 1 if crossed else pos
        half = n // 2
        first = stage
        last = len(stages) - 1 - stage
        sw = pos // 2
        crossed = stages[first][offset + sw]
        line = pos % 2
        if crossed:
            line ^= 1
        # line 0 -> upper subnet, line 1 -> lower subnet, at position sw
        if line == 0:
            sub_out = self._trace_rec(sw, stages, stage + 1, offset, half)
            out_sw, out_line = sub_out, 0
        else:
            sub_out = self._trace_rec(
                sw, stages, stage + 1, offset + half // 2, half
            )
            out_sw, out_line = sub_out, 1
        out_crossed = stages[last][offset + out_sw]
        if out_crossed:
            out_line ^= 1
        return out_sw * 2 + out_line
