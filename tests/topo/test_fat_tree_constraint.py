"""``binary_fat_tree`` as a fabric constraint agrees with the analytic rule.

The reference oracle is the bit-arithmetic binary fat tree: a connection
``u -> v`` climbs to crossing level ``(u ^ v).bit_length()``, loading the
up edge ``(level, u >> level)`` and the down edge ``(level, v >> level)``
of every level below it, and the edge above a size-``2**level`` subtree
carries ``max(1, 2**level // taper)`` connections per direction.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fabric.config import ConfigMatrix
from repro.topo import Topology, binary_fat_tree

SIZES = [2**m for m in range(1, 7)]  # 2 .. 64


def analytic_loads(conns) -> dict[tuple[int, int, str], int]:
    """Connections per (level, subtree, direction) tree edge."""
    loads: dict[tuple[int, int, str], int] = {}
    for u, v in conns:
        for level in range(1, (u ^ v).bit_length()):
            for key in ((level, u >> level, "up"), (level, v >> level, "down")):
                loads[key] = loads.get(key, 0) + 1
    return loads


def analytic_capacity(level: int, taper: int) -> int:
    return max(1, 2**level // taper)


def edge_of(n: int, a: int, b: int) -> tuple[int, int, str]:
    """The (level, subtree, direction) edge a directed switch hop uses.

    Inverts the builder's numbering: subtree ``s`` of level ``l`` is
    switch ``n - (n >> (l - 1)) + s``.
    """

    def position(switch: int) -> tuple[int, int]:
        level = 1
        while switch >= n - (n >> level):
            level += 1
        return level, switch - (n - (n >> (level - 1)))

    (la, sa), (lb, sb) = position(a), position(b)
    if lb == la + 1:
        return la, sa, "up"
    assert la == lb + 1, f"hop {a} -> {b} skips a level"
    return lb, sb, "down"


@st.composite
def partial_permutation(draw) -> tuple[int, list[tuple[int, int]]]:
    """A size from :data:`SIZES` and a random partial permutation on it."""
    n = draw(st.sampled_from(SIZES))
    perm = draw(st.permutations(list(range(n))))
    keep = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return n, [(u, v) for u, (v, k) in enumerate(zip(perm, keep)) if k]


@settings(max_examples=150, deadline=None)
@given(partial_permutation(), st.integers(1, 8))
def test_constraint_matches_analytic_rule(case, taper):
    n, conns = case
    topo = binary_fat_tree(n, taper)
    cfg = ConfigMatrix.from_pairs(n, conns)
    hops = topo.trunk_loads(conns)
    expected = analytic_loads(conns)
    assert {edge_of(n, a, b): load for (a, b), load in hops.items()} == expected
    for a, b in hops:
        level = edge_of(n, a, b)[0]
        assert len(topo.trunk_links(a, b)) == analytic_capacity(level, taper)
    fits = all(
        load <= analytic_capacity(level, taper)
        for (level, _, _), load in expected.items()
    )
    assert topo.is_realizable(cfg) == fits


@settings(max_examples=60, deadline=None)
@given(partial_permutation())
def test_single_switch_is_the_trivial_constraint(case):
    """The crossbar realises every partial permutation in one slot."""
    n, pairs = case
    topo = Topology.single_switch(n)
    cfg = ConfigMatrix.from_pairs(n, pairs)
    assert topo.trunk_loads(pairs) == {}
    assert topo.is_realizable(cfg)
