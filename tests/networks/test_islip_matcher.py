"""Property test: the matrix iSLIP matcher equals the scalar matcher.

The oracle below is the per-output loop iSLIP was first written as: each
free output grants the first free requester at or cyclically after its
grant pointer, each granted input accepts the first granting output at or
after its accept pointer (inputs in ascending order), and pointers move
only on first-iteration accepts.  ``IslipNetwork._match`` must return the
same matching, in the same order, and leave the same pointers.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.networks.islip import IslipNetwork
from repro.params import PAPER_PARAMS


def _rr_pick(candidates: np.ndarray, pointer: int) -> int:
    at_or_after = candidates[candidates >= pointer]
    return int(at_or_after[0]) if len(at_or_after) else int(candidates[0])


def scalar_match(
    requests: np.ndarray,
    grant_ptr: np.ndarray,
    accept_ptr: np.ndarray,
    iterations: int,
) -> list[tuple[int, int]]:
    """The oracle; updates ``grant_ptr`` and ``accept_ptr`` in place."""
    n = len(requests)
    in_free = np.ones(n, dtype=bool)
    out_free = np.ones(n, dtype=bool)
    matching: list[tuple[int, int]] = []
    for it in range(iterations):
        grants: dict[int, list[int]] = {}
        for v in np.nonzero(out_free)[0]:
            col = requests[:, v] & in_free
            if not col.any():
                continue
            u = _rr_pick(np.nonzero(col)[0], int(grant_ptr[v]))
            grants.setdefault(u, []).append(int(v))
        if not grants:
            break
        for u, outs in sorted(grants.items()):
            v = _rr_pick(np.asarray(outs, dtype=np.int64), int(accept_ptr[u]))
            in_free[u] = False
            out_free[v] = False
            matching.append((u, v))
            if it == 0:
                grant_ptr[v] = (u + 1) % n
                accept_ptr[u] = (v + 1) % n
    return matching


@st.composite
def matcher_case(draw):
    n = draw(st.integers(2, 16))
    density = draw(st.sampled_from([0.1, 0.3, 0.6, 1.0]))
    bits = draw(
        st.lists(
            st.floats(0.0, 1.0, allow_nan=False), min_size=n * n, max_size=n * n
        )
    )
    requests = np.array(bits).reshape(n, n) < density
    grant = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    accept = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    iterations = draw(st.integers(1, 4))
    return requests, np.array(grant), np.array(accept), iterations


@settings(max_examples=300, deadline=None)
@given(matcher_case())
def test_matrix_match_equals_scalar_match(case):
    requests, grant, accept, iterations = case
    n = len(requests)
    net = IslipNetwork(PAPER_PARAMS.with_overrides(n_ports=n), iterations=iterations)
    net._grant_ptr = grant.astype(np.int64)
    net._accept_ptr = accept.astype(np.int64)
    want_grant = grant.astype(np.int64)
    want_accept = accept.astype(np.int64)
    want = scalar_match(requests, want_grant, want_accept, iterations)
    got = net._match(requests.copy())
    assert got == want
    assert net._grant_ptr.tolist() == want_grant.tolist()
    assert net._accept_ptr.tolist() == want_accept.tolist()
