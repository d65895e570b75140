"""Concrete topology builders: FM16-style full mesh, 2-tier fat tree,
binary fat tree, line.

All builders return immutable :class:`repro.topo.Topology` instances and
take only plain integers, so the scheme registry can rebuild them from
``RunSpec.options`` in pool workers (see ``tools/check_construction.py``
pool rules — cells must stay plain data).

Port layout convention: every switch numbers its endpoint-facing ports
first, then its trunk ports, so local port arithmetic stays obvious in
traces and tests.
"""

from __future__ import annotations

from ..errors import ConfigurationError
from .graph import Topology, TrunkLink

__all__ = ["full_mesh", "fat_tree", "binary_fat_tree", "line"]


def full_mesh(
    n_endpoints: int, n_switches: int = 16, links_per_pair: int = 4
) -> Topology:
    """An FM16-style full mesh: every switch pair joined by parallel trunks.

    Endpoints are striped contiguously: endpoint ``e`` sits on switch
    ``e // (n_endpoints // n_switches)``.  Any endpoint pair's route
    crosses at most two switches, so the mesh isolates the cost of the
    first trunk hop; the fat tree is the deeper counterpart.
    """
    if n_switches < 2:
        raise ConfigurationError("a full mesh needs at least 2 switches")
    if links_per_pair < 1:
        raise ConfigurationError("links_per_pair must be >= 1")
    if n_endpoints % n_switches != 0:
        raise ConfigurationError(
            f"n_endpoints ({n_endpoints}) must divide evenly over "
            f"{n_switches} switches"
        )
    per_switch = n_endpoints // n_switches
    if per_switch < 1:
        raise ConfigurationError("every mesh switch needs at least one endpoint")
    trunk_ports = (n_switches - 1) * links_per_pair
    ports = per_switch + trunk_ports
    endpoint_switch = tuple(e // per_switch for e in range(n_endpoints))
    endpoint_port = tuple(e % per_switch for e in range(n_endpoints))
    next_port = [per_switch] * n_switches
    links: list[TrunkLink] = []
    for a in range(n_switches):
        for b in range(a + 1, n_switches):
            for _ in range(links_per_pair):
                links.append(
                    TrunkLink(
                        index=len(links),
                        a=a,
                        b=b,
                        a_port=next_port[a],
                        b_port=next_port[b],
                    )
                )
                next_port[a] += 1
                next_port[b] += 1
    return Topology(
        name=f"mesh{n_switches}x{links_per_pair}",
        n_endpoints=n_endpoints,
        switch_ports=(ports,) * n_switches,
        endpoint_switch=endpoint_switch,
        endpoint_port=endpoint_port,
        links=tuple(links),
    )


def fat_tree(n_endpoints: int, leaf_size: int = 16, taper: int = 1) -> Topology:
    """A 2-tier leaf/spine fat tree.

    ``leaf_size`` endpoints hang off each leaf switch; every leaf has one
    uplink to each of ``max(1, leaf_size // taper)`` spines — the edge
    capacity :func:`binary_fat_tree` gives a subtree of ``leaf_size``
    endpoints — so at ``taper=1`` the tree has full bisection (every
    permutation realisable in one pass) and at ``taper>1`` leaf uplinks
    oversubscribe by the taper.  Routes cross 1 switch (same leaf) or 3
    (leaf → spine → leaf).
    """
    if leaf_size < 2:
        raise ConfigurationError("leaf_size must be >= 2")
    if taper < 1:
        raise ConfigurationError("taper must be >= 1")
    if n_endpoints % leaf_size != 0:
        raise ConfigurationError(
            f"n_endpoints ({n_endpoints}) must divide evenly into leaves "
            f"of {leaf_size}"
        )
    n_leaves = n_endpoints // leaf_size
    if n_leaves < 2:
        raise ConfigurationError("a fat tree needs at least 2 leaves")
    n_spines = max(1, leaf_size // taper)
    # switches: leaves 0..n_leaves-1, spines n_leaves..n_leaves+n_spines-1
    leaf_ports = leaf_size + n_spines
    spine_ports = n_leaves
    switch_ports = (leaf_ports,) * n_leaves + (spine_ports,) * n_spines
    endpoint_switch = tuple(e // leaf_size for e in range(n_endpoints))
    endpoint_port = tuple(e % leaf_size for e in range(n_endpoints))
    links: list[TrunkLink] = []
    for leaf in range(n_leaves):
        for spine in range(n_spines):
            links.append(
                TrunkLink(
                    index=len(links),
                    a=leaf,
                    b=n_leaves + spine,
                    a_port=leaf_size + spine,
                    b_port=leaf,
                )
            )
    return Topology(
        name=f"fattree{n_leaves}x{n_spines}t{taper}",
        n_endpoints=n_endpoints,
        switch_ports=switch_ports,
        endpoint_switch=endpoint_switch,
        endpoint_port=endpoint_port,
        links=tuple(links),
    )


def binary_fat_tree(n: int, taper: int = 1) -> Topology:
    """A binary fat tree over ``n = 2^m`` endpoints, tapered by ``taper``.

    Section 4's multi-path fabric as a switch graph: one switch per
    subtree of size ``2^level`` for ``level = 1 .. m``, two endpoints on
    each level-1 switch, and ``max(1, 2**level // taper)`` parallel trunk
    links from a level-``level`` subtree's switch to its parent.  At
    ``taper=1`` every permutation fits one slot; larger tapers thin the
    upper levels the way cost-reduced installations do, and
    :meth:`Topology.is_realizable` is then the capacity rule a
    :class:`repro.sched.ConstrainedScheduler` checks.  A tree has one
    path per endpoint pair: the route climbs to the smallest subtree
    holding both endpoints and back down.

    Switches are numbered level by level: subtree ``s`` of level ``l``
    is switch ``n - (n >> (l - 1)) + s``, so endpoint ``e`` sits on
    switch ``e >> 1`` and the root is switch ``n - 2``.
    """
    if n < 2 or n & (n - 1):
        raise ConfigurationError(
            f"a binary fat tree needs n = 2^m >= 2 endpoints, got {n}"
        )
    if taper < 1:
        raise ConfigurationError("taper must be >= 1")
    m = n.bit_length() - 1

    def first(level: int) -> int:
        return n - (n >> (level - 1))

    def up_links(level: int) -> int:
        return max(1, (1 << level) // taper) if level < m else 0

    def down_ports(level: int) -> int:
        # two endpoints on a level-1 switch, else both children's uplinks;
        # a switch numbers these first, then its own uplinks
        return 2 if level == 1 else 2 * up_links(level - 1)

    switch_ports: list[int] = []
    for level in range(1, m + 1):
        switch_ports += [down_ports(level) + up_links(level)] * (n >> level)
    links: list[TrunkLink] = []
    for level in range(1, m):
        width = up_links(level)
        for s in range(n >> level):
            for k in range(width):
                links.append(
                    TrunkLink(
                        index=len(links),
                        a=first(level) + s,
                        b=first(level + 1) + (s >> 1),
                        a_port=down_ports(level) + k,
                        b_port=(s & 1) * width + k,
                    )
                )
    return Topology(
        name=f"bfattree{n}t{taper}",
        n_endpoints=n,
        switch_ports=tuple(switch_ports),
        endpoint_switch=tuple(e >> 1 for e in range(n)),
        endpoint_port=tuple(e & 1 for e in range(n)),
        links=tuple(links),
    )


def line(hops: int) -> Topology:
    """A chain of ``hops`` switches with one endpoint at each end.

    The minimal multi-hop shape: endpoint 0 on the first switch,
    endpoint 1 on the last, one trunk per adjacent pair.  Every
    0 -> 1 circuit traverses exactly ``hops`` switches, which is what the
    :class:`repro.networks.multihop.MultiHopModel` cross-validation
    needs — a contention-free path of known length.
    """
    if hops < 1:
        raise ConfigurationError("a line needs at least one switch")
    if hops == 1:
        return Topology(
            name="line1",
            n_endpoints=2,
            switch_ports=(2,),
            endpoint_switch=(0, 0),
            endpoint_port=(0, 1),
            links=(),
        )
    # every switch has 2 ports: port 0 faces "left" (endpoint 0 or the
    # previous switch), port 1 faces "right" (the next switch or endpoint 1)
    switch_ports = tuple(2 for _ in range(hops))
    links = tuple(
        TrunkLink(index=i, a=i, b=i + 1, a_port=1, b_port=0)
        for i in range(hops - 1)
    )
    return Topology(
        name=f"line{hops}",
        n_endpoints=2,
        switch_ports=switch_ports,
        endpoint_switch=(0, hops - 1),
        endpoint_port=(0, 1),
        links=links,
    )
