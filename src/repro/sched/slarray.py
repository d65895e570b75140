"""The SL array — Table 2 and Figure 3 of the paper.

The scheduling logic is an ``N x N`` systolic array of identical modules
``SL[u,v]``.  Two families of availability signals flow through it:

* ``A`` propagates **up the rows** (row 0 first): ``A[u,v] = 0`` iff output
  port ``v`` is still available when the wavefront reaches row ``u``;
* ``D`` propagates **right along the columns**: ``D[u,v] = 0`` iff input
  port ``u`` is still available when the wavefront reaches column ``v``.

Each module implements Table 2:

====  ===  ===  ==========================================  ===  =====  =====
L     A    D    action                                      T    A_out  D_out
====  ===  ===  ==========================================  ===  =====  =====
0     x    x    no change                                   0    A      D
1     1    1    release the connection in slot s            1    0      0
1     1    0    need connection but output not available    0    A      D
1     0    1    need connection but input not available     0    A      D
1     0    0    establish connection in slot s              1    1      1
====  ===  ===  ==========================================  ===  =====  =====

The (L=1, A=1, D=1) case is always a *release*: a cell asked to establish
while both of its ports are occupied by other connections falls into the
"resources not available" rows because an establish request has
``B(s)[u,v] = 0`` and occupied ports show ``A = D = 1`` only when *other*
connections hold them — and a cell holding its own connection is the unique
``B(s)[u,v] = 1`` cell in its row and column.  The reference implementation
checks this invariant explicitly.

**Priority rotation.**  Initialising ``A`` at row ``a`` and ``D`` at column
``b`` (paper, end of Section 4) gives requests at and after ``(a, b)`` in the
rotated row-major order first claim on free ports.  We therefore traverse
rows in the cyclic order ``a, a+1, ..., a-1`` and columns ``b, b+1, ...,
b-1``; signals do not wrap past the injection point.

Three interchangeable implementations are provided:

* :func:`wavefront_reference` — a dense, cell-by-cell transliteration of
  Table 2 used by the unit and property tests;
* :func:`wavefront_sparse` — an O(nnz(L)) equivalent used by the
  simulators.  Cells with ``L = 0`` are transparent to both signal familes,
  so visiting only the non-zero cells of ``L`` in the same traversal order
  produces bit-identical results (a Hypothesis test pins this);
* :func:`wavefront_batch` — the same outcome with the cells that are
  blocked from the start filtered out by numpy, walking only the rest
  (single-crossbar runs eligible for :mod:`repro.sim.fastpath` use it).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import InvariantError

__all__ = [
    "Toggle",
    "PassOutcome",
    "wavefront_reference",
    "wavefront_sparse",
    "wavefront_batch",
]


@dataclass(slots=True, frozen=True)
class Toggle:
    """One T=1 output of the SL array: flip B(s)[u,v]."""

    u: int
    v: int
    establish: bool  # True: 0 -> 1, False: released


@dataclass(slots=True)
class PassOutcome:
    """Everything one SL-array pass produced."""

    toggles: list[Toggle] = field(default_factory=list)
    blocked: int = 0  # L=1 establish cells that found no free ports

    @property
    def established(self) -> list[Toggle]:
        return [t for t in self.toggles if t.establish]

    @property
    def released(self) -> list[Toggle]:
        return [t for t in self.toggles if not t.establish]

    def toggle_matrix(self, n: int) -> np.ndarray:
        """Dense T matrix (test/debug helper)."""
        t = np.zeros((n, n), dtype=bool)
        for tg in self.toggles:
            t[tg.u, tg.v] = True
        return t


def wavefront_reference(
    l: np.ndarray,
    b_s: np.ndarray,
    ao: np.ndarray,
    ai: np.ndarray,
    rotation: tuple[int, int] = (0, 0),
) -> PassOutcome:
    """Dense cell-by-cell evaluation of Table 2 (the testing oracle).

    Parameters
    ----------
    l:
        The pre-scheduling matrix from :func:`repro.sched.presched.compute_l`.
    b_s:
        The configuration of the slot being scheduled (NOT modified).
    ao, ai:
        Output/input port occupancy of ``b_s`` — ``AO[v] = 1`` iff output
        ``v`` is taken, ``AI[u] = 1`` iff input ``u`` is taken.
    rotation:
        The (a, b) priority injection point.

    Returns the pass outcome; callers apply the toggles to their register
    file themselves.
    """
    n = l.shape[0]
    a, b = rotation[0] % n, rotation[1] % n
    out = PassOutcome()
    a_sig = np.asarray(ao, dtype=bool).copy()  # per-column running A signal
    for ui in range(n):
        u = (a + ui) % n
        d_sig = bool(ai[u])  # running D signal along this row
        for vi in range(n):
            v = (b + vi) % n
            if not l[u, v]:
                continue  # L=0: signals pass through unchanged
            a_uv = bool(a_sig[v])
            d_uv = d_sig
            if b_s[u, v]:
                # release: the cell holds the connection, so its own
                # occupancy guarantees A = D = 1 here.
                if not (a_uv and d_uv):
                    raise InvariantError(
                        f"release cell ({u},{v}) saw free ports A={a_uv} D={d_uv}"
                    )
                out.toggles.append(Toggle(u, v, establish=False))
                a_sig[v] = False
                d_sig = False
            elif not a_uv and not d_uv:
                out.toggles.append(Toggle(u, v, establish=True))
                a_sig[v] = True
                d_sig = True
            else:
                out.blocked += 1
    return out


def wavefront_sparse(
    l_rows: np.ndarray,
    l_cols: np.ndarray,
    b_s: np.ndarray,
    ao: np.ndarray,
    ai: np.ndarray,
    rotation: tuple[int, int] = (0, 0),
) -> PassOutcome:
    """Fast path: evaluate only the non-zero cells of L.

    ``l_rows`` / ``l_cols`` are the coordinates of the L=1 cells (any
    order).  Produces output identical to :func:`wavefront_reference` on
    the dense matrix with those cells set.
    """
    n = b_s.shape[0]
    out = PassOutcome()
    if len(l_rows) == 0:
        return out
    a, b = rotation[0] % n, rotation[1] % n
    # Sort cells into the rotated row-major traversal order.  Callers
    # overwhelmingly pass np.nonzero(L) coordinates, which are already
    # row-major — with the default (0, 0) rotation the rotated order is
    # the given order and the O(nnz log nnz) lexsort is pure overhead, so
    # an O(nnz) monotonicity check skips it (lexsort is stable, so an
    # already-sorted input yields the identity permutation anyway).
    ru = (l_rows - a) % n
    rv = (l_cols - b) % n
    if ru.size < 2:
        presorted = True
    else:
        dr = np.diff(ru)
        presorted = bool(np.all((dr > 0) | ((dr == 0) & (np.diff(rv) > 0))))
    if presorted:
        us, vs = l_rows, l_cols
    else:
        order = np.lexsort((rv, ru))
        us = l_rows[order]
        vs = l_cols[order]

    a_sig = np.asarray(ao, dtype=bool).copy()
    d_sig = np.asarray(ai, dtype=bool).copy()  # per-row running D signal
    for u, v in zip(us.tolist(), vs.tolist()):
        a_uv = bool(a_sig[v])
        d_uv = bool(d_sig[u])
        if b_s[u, v]:
            if not (a_uv and d_uv):  # pragma: no cover - mirrors the oracle
                raise InvariantError(
                    f"release cell ({u},{v}) saw free ports A={a_uv} D={d_uv}"
                )
            out.toggles.append(Toggle(u, v, establish=False))
            a_sig[v] = False
            d_sig[u] = False
        elif not a_uv and not d_uv:
            out.toggles.append(Toggle(u, v, establish=True))
            a_sig[v] = True
            d_sig[u] = True
        else:
            out.blocked += 1
    return out


#: below this many L=1 cells the numpy filter of the batch evaluation
#: costs more than it saves the sparse walk, so it delegates (measured
#: on 128-port message-granular passes: the filter pays from about 100)
_BATCH_MIN_NNZ = 128


def wavefront_batch(
    l_rows: np.ndarray,
    l_cols: np.ndarray,
    b_s: np.ndarray,
    ao: np.ndarray,
    ai: np.ndarray,
    rotation: tuple[int, int] = (0, 0),
    *,
    min_nnz: int = _BATCH_MIN_NNZ,
) -> PassOutcome:
    """Vectorized pass: drop the surely-blocked L cells, walk the rest.

    Produces output bit-identical to :func:`wavefront_reference` /
    :func:`wavefront_sparse` for consistent inputs (``ao``/``ai`` the port
    occupancy of ``b_s``, unique cell coordinates).  Releases always fire,
    and there is at most one per row and per column (``b_s`` is a partial
    permutation), so every row/column has a single *available-from*
    traversal position: ``-1`` if free at entry, the release's position if
    freed mid-pass, past-the-end if occupied with no release.  An
    establish cell at or before its row's or its column's available-from
    position is blocked whatever else happens, and a blocked cell moves no
    signal, so one numpy filter drops those cells and
    :func:`wavefront_sparse` walks only the releases and the survivors.
    On a busy crossbar most cells are dropped.  Below ``min_nnz`` pending
    cells the call walks them all — the outcome is identical either way,
    only the constant factors differ.
    """
    nnz = len(l_rows)
    if nnz < min_nnz:
        return wavefront_sparse(l_rows, l_cols, b_s, ao, ai, rotation)
    n = b_s.shape[0]
    a, b = rotation[0] % n, rotation[1] % n
    us = np.asarray(l_rows)
    vs = np.asarray(l_cols)
    rel = b_s[us, vs]
    ai_b = np.asarray(ai, dtype=bool)
    ao_b = np.asarray(ao, dtype=bool)
    if rel.any():
        if not bool(np.all(ao_b[vs[rel]] & ai_b[us[rel]])):
            # inconsistent occupancy: walk every cell so the caller gets
            # the oracle's exact InvariantError for the first offending one
            return wavefront_sparse(l_rows, l_cols, b_s, ao, ai, rotation)
        pos = ((us - a) % n) * n + ((vs - b) % n)
        past_end = n * n + 1
        row_avail = np.where(ai_b, past_end, -1)
        col_avail = np.where(ao_b, past_end, -1)
        row_avail[us[rel]] = pos[rel]
        col_avail[vs[rel]] = pos[rel]
        keep = rel | ((pos > row_avail[us]) & (pos > col_avail[vs]))
    else:
        # no release: a cell survives only if both its ports are free
        keep = ~(ai_b[us] | ao_b[vs])
    out = wavefront_sparse(us[keep], vs[keep], b_s, ao, ai, rotation)
    out.blocked += nnz - int(np.count_nonzero(keep))
    return out
