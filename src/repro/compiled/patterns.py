"""Static communication pattern algebra.

A :class:`StaticPattern` is a compile-time-known connection set with the
operations a compiled-communication pass needs: optimal multiplexing
degree and compilation into preloadable
configurations (optionally batched to fit a register file of ``k`` slots).
"""

from __future__ import annotations

from collections.abc import Iterable

from ..errors import ConfigurationError
from ..fabric.config import ConfigMatrix
from ..types import Connection
from .coloring import connection_degree, decompose

__all__ = ["StaticPattern"]


class StaticPattern:
    """A compile-time connection set over ``n`` ports."""

    __slots__ = ("n", "conns")

    def __init__(self, n: int, conns: Iterable[tuple[int, int]] = ()) -> None:
        if n < 2:
            raise ConfigurationError("patterns need at least 2 ports")
        self.n = n
        self.conns: set[Connection] = set()
        for u, v in conns:
            self.add(u, v)

    @classmethod
    def from_permutation(cls, perm: Iterable[int]) -> "StaticPattern":
        """Pattern of a (partial) permutation: perm[u] = v, -1 to skip."""
        perm = list(perm)
        pat = cls(len(perm))
        for u, v in enumerate(perm):
            if v >= 0:
                pat.add(u, v)
        return pat

    def add(self, u: int, v: int) -> None:
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ConfigurationError(f"connection ({u},{v}) out of range")
        if u == v:
            raise ConfigurationError("self connections are not modelled")
        self.conns.add(Connection(u, v))

    @property
    def degree(self) -> int:
        """Optimal multiplexing degree k(C) = max port degree."""
        return connection_degree(self.conns, self.n)

    def compile(self) -> list[ConfigMatrix]:
        """Decompose into exactly ``degree`` conflict-free configurations."""
        return decompose(self.conns, self.n)

    def compile_batched(self, k: int) -> list[list[ConfigMatrix]]:
        """Compile, then batch into groups of at most ``k`` configurations.

        When the pattern's degree exceeds the available registers, the
        compiled program loads the batches sequentially — batch ``i+1``
        replaces batch ``i`` once its traffic has drained (the compiler
        inserts the corresponding load directives).
        """
        if k < 1:
            raise ConfigurationError("need at least one slot to batch into")
        configs = self.compile()
        return [configs[i : i + k] for i in range(0, len(configs), k)]

    def __len__(self) -> int:
        return len(self.conns)

    def __contains__(self, conn: tuple[int, int]) -> bool:
        return Connection(*conn) in self.conns

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StaticPattern):
            return NotImplemented
        return self.n == other.n and self.conns == other.conns

    def __repr__(self) -> str:
        return f"StaticPattern(n={self.n}, |C|={len(self.conns)}, k={self.degree})"
