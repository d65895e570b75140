"""Crossbar configuration matrices.

Section 4 of the paper: *"a configuration C may be represented by a Boolean
matrix B, where B[u,v] is 1 when input u is connected to output v ... for
the case of a crossbar fabric, the only constraints on B are that there is
at most one non-zero entry in each row and at most one non-zero entry in
each column"* — i.e. a configuration is a partial permutation matrix.

:class:`ConfigMatrix` enforces that invariant on every mutation, in O(1)
per operation, using cached row/column occupancy vectors.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from ..errors import ConfigurationError, InvariantError
from ..types import Connection

__all__ = ["ConfigMatrix"]


class ConfigMatrix:
    """A partial permutation matrix over ``n`` ports.

    The underlying storage is a dense boolean ndarray ``b`` plus two int
    vectors: ``row_to_col[u]`` is the output connected to input ``u`` (or
    -1), and ``col_to_row[v]`` is the input connected to output ``v`` (or
    -1).  The vectors are the authoritative state; the dense matrix is kept
    in sync for vectorised scheduler maths.
    """

    __slots__ = ("n", "b", "row_to_col", "col_to_row", "_size")

    def __init__(self, n: int) -> None:
        if n < 1:
            raise ConfigurationError(f"port count must be positive, got {n}")
        self.n = n
        self.b = np.zeros((n, n), dtype=bool)
        self.row_to_col = np.full(n, -1, dtype=np.int32)
        self.col_to_row = np.full(n, -1, dtype=np.int32)
        self._size = 0

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_pairs(cls, n: int, pairs: Iterable[tuple[int, int]]) -> "ConfigMatrix":
        """Build a configuration from (src, dst) pairs; conflicts raise."""
        cfg = cls(n)
        for u, v in pairs:
            cfg.establish(u, v)
        return cfg

    @classmethod
    def from_permutation(cls, perm: Iterable[int]) -> "ConfigMatrix":
        """Build from a full or partial permutation vector.

        ``perm[u] = v`` connects input ``u`` to output ``v``; ``perm[u] = -1``
        leaves input ``u`` unconnected.
        """
        perm = list(perm)
        cfg = cls(len(perm))
        for u, v in enumerate(perm):
            if v >= 0:
                cfg.establish(u, v)
        return cfg

    # -- mutation -----------------------------------------------------------

    def establish(self, u: int, v: int) -> None:
        """Connect input ``u`` to output ``v``; raises if either port is busy."""
        self._check_ports(u, v)
        if self.row_to_col[u] >= 0:
            raise ConfigurationError(
                f"input {u} already connected to output {self.row_to_col[u]}"
            )
        if self.col_to_row[v] >= 0:
            raise ConfigurationError(
                f"output {v} already connected to input {self.col_to_row[v]}"
            )
        self.b[u, v] = True
        self.row_to_col[u] = v
        self.col_to_row[v] = u
        self._size += 1

    def release(self, u: int, v: int) -> None:
        """Remove the connection (u, v); raises if it is not established."""
        self._check_ports(u, v)
        if not self.b[u, v]:
            raise ConfigurationError(f"connection ({u}, {v}) is not established")
        self.b[u, v] = False
        self.row_to_col[u] = -1
        self.col_to_row[v] = -1
        self._size -= 1

    def toggle(self, u: int, v: int) -> bool:
        """Flip the state of (u, v) — the scheduler's ``T`` signal.

        Returns True if the connection is established after the toggle.
        """
        if self.b[u, v]:
            self.release(u, v)
            return False
        self.establish(u, v)
        return True

    def clear(self) -> None:
        """Remove every connection (the scheduler's flush directive)."""
        self.b[:] = False
        self.row_to_col[:] = -1
        self.col_to_row[:] = -1
        self._size = 0

    def load(self, other: "ConfigMatrix") -> None:
        """Overwrite this configuration with a copy of ``other``."""
        if other.n != self.n:
            raise ConfigurationError("cannot load a configuration of different size")
        np.copyto(self.b, other.b)
        np.copyto(self.row_to_col, other.row_to_col)
        np.copyto(self.col_to_row, other.col_to_row)
        self._size = other._size

    # -- queries ------------------------------------------------------------

    def __contains__(self, conn: tuple[int, int]) -> bool:
        u, v = conn
        return bool(self.b[u, v])

    def __len__(self) -> int:
        return self._size

    @property
    def is_empty(self) -> bool:
        """True if no connection is established (TDM counter skips these)."""
        return self._size == 0

    def connections(self) -> Iterator[Connection]:
        """Iterate established connections in input-port order."""
        for u in range(self.n):
            v = int(self.row_to_col[u])
            if v >= 0:
                yield Connection(u, v)

    def output_of(self, u: int) -> int | None:
        """The output port input ``u`` is connected to, or None."""
        v = int(self.row_to_col[u])
        return v if v >= 0 else None

    def input_of(self, v: int) -> int | None:
        """The input port connected to output ``v``, or None."""
        u = int(self.col_to_row[v])
        return u if u >= 0 else None

    def grants(self) -> np.ndarray:
        """The grant matrix G (a copy of B): row u is the grant signal G_u."""
        return self.b.copy()

    def input_busy(self) -> np.ndarray:
        """Boolean vector AI: AI[u] == input u occupied in this slot."""
        return self.row_to_col >= 0

    def output_busy(self) -> np.ndarray:
        """Boolean vector AO: AO[v] == output v occupied in this slot."""
        return self.col_to_row >= 0

    def copy(self) -> "ConfigMatrix":
        out = ConfigMatrix(self.n)
        out.load(self)
        return out

    def check_invariants(self) -> None:
        """Verify dense matrix and occupancy vectors agree (test hook)."""
        rows = self.b.sum(axis=1)
        cols = self.b.sum(axis=0)
        if rows.max(initial=0) > 1 or cols.max(initial=0) > 1:
            raise InvariantError("configuration violates the crossbar constraint")
        for u in range(self.n):
            v = int(self.row_to_col[u])
            if v >= 0:
                if not self.b[u, v] or self.col_to_row[v] != u:
                    raise InvariantError(f"occupancy desync at input {u}")
            elif rows[u] != 0:
                raise InvariantError(f"occupancy desync at input {u}")
        if self._size != int(self.b.sum()):
            raise InvariantError("size counter desync")

    def _check_ports(self, u: int, v: int) -> None:
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ConfigurationError(
                f"ports ({u}, {v}) out of range for {self.n}-port fabric"
            )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ConfigMatrix):
            return NotImplemented
        return self.n == other.n and bool(np.array_equal(self.b, other.b))

    def __hash__(self) -> int:  # pragma: no cover - configs are mutable
        raise TypeError("ConfigMatrix is mutable and unhashable")

    def __repr__(self) -> str:
        conns = ", ".join(f"{u}->{v}" for u, v in self.connections())
        return f"ConfigMatrix(n={self.n}, [{conns}])"
