"""The switch-graph topology layer.

Everything below the scheme registry used to assume one crossbar: a port
was simultaneously an endpoint, a switch input, and a switch output.  This
module makes the fabric shape explicit so the multi-switch schemes
(:mod:`repro.networks.multiswitch`) can model the paper's Section-6 claim
— multiplexed circuits over multi-hop networks — with real per-switch
SL arrays:

* a :class:`Topology` is a set of switches (each with its own local port
  space), an attachment map from endpoints to (switch, local port), and a
  set of full-duplex :class:`TrunkLink` s between switches — possibly
  several parallel links per switch pair (the FM16 full mesh runs four);
* :meth:`Topology.route` is **deterministic path selection**: a BFS
  shortest path whose tie-break among equal-cost next hops is a fixed
  mix of the endpoint pair, so repeated runs (and parallel sweep workers)
  pick byte-identical routes while different endpoint pairs still spread
  over the available multi-paths of a fat tree; without a health mask
  the route is fixed by the graph, so each endpoint pair is searched once;
* :meth:`Topology.is_realizable` makes every topology a fabric constraint
  for :class:`repro.sched.ConstrainedScheduler`: a slot configuration
  fits iff no directed hop of its routes carries more connections than
  the hop has parallel trunk links;
* :meth:`Topology.path_latency_ps` is the established-pipe fill time over
  ``h`` passive LVDS switches and equals
  :meth:`repro.networks.multihop.MultiHopModel.tdm_path_fill_ps` by
  construction — the analytic model and the simulator share one formula
  (the cross-validation test pins this).

The single-crossbar networks use :meth:`Topology.single_switch`, which
reproduces the old implicit shape exactly (endpoint ``i`` is local port
``i`` of switch 0, no trunks), so threading the topology through
:mod:`repro.networks.base` changes no existing byte of output.

Link *health* is run state, not topology state: the owning network keeps
per-link down/dead arrays (see
:class:`repro.networks.lifecycle.ConnectionManager`) and passes a healthy
mask into :meth:`route`, so one immutable topology serves every run.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from ..errors import ConfigurationError
from ..fabric.config import ConfigMatrix
from ..params import SystemParams

__all__ = ["TrunkLink", "Topology"]

#: Knuth's multiplicative-hash constant; mixes (src, dst) into a stable
#: tie-break index so equal-cost multi-paths are spread deterministically
_SPREAD_MIX = 2654435761


@dataclass(slots=True, frozen=True)
class TrunkLink:
    """One full-duplex physical link between two switches.

    ``a < b`` by convention; ``a_port``/``b_port`` are the local port
    numbers the link occupies on each switch.  A configuration slot that
    establishes a connection through the link claims those ports in that
    slot's configuration matrix on both switches — port occupancy in the
    per-switch register files is what arbitrates parallel links.
    """

    index: int
    a: int
    b: int
    a_port: int
    b_port: int

    def __post_init__(self) -> None:
        if self.a == self.b:
            raise ConfigurationError(f"trunk link {self.index} loops switch {self.a}")
        if self.a > self.b:
            raise ConfigurationError(
                f"trunk link {self.index} must be ordered a < b, "
                f"got ({self.a}, {self.b})"
            )

    def port_on(self, switch: int) -> int:
        """The local port this link occupies on ``switch``."""
        if switch == self.a:
            return self.a_port
        if switch == self.b:
            return self.b_port
        raise ConfigurationError(
            f"link {self.index} ({self.a} <-> {self.b}) does not touch "
            f"switch {switch}"
        )

    def other(self, switch: int) -> int:
        """The switch on the far end of the link from ``switch``."""
        if switch == self.a:
            return self.b
        if switch == self.b:
            return self.a
        raise ConfigurationError(
            f"link {self.index} ({self.a} <-> {self.b}) does not touch "
            f"switch {switch}"
        )


class Topology:
    """An immutable switch graph with endpoint attachments and trunk links."""

    __slots__ = (
        "name",
        "n_endpoints",
        "switch_ports",
        "endpoint_switch",
        "endpoint_port",
        "links",
        "_trunks",
        "_neighbors",
        "_routes",
    )

    def __init__(
        self,
        *,
        name: str,
        n_endpoints: int,
        switch_ports: tuple[int, ...],
        endpoint_switch: tuple[int, ...],
        endpoint_port: tuple[int, ...],
        links: tuple[TrunkLink, ...],
    ) -> None:
        if n_endpoints < 2:
            raise ConfigurationError("a topology needs at least 2 endpoints")
        if not switch_ports:
            raise ConfigurationError("a topology needs at least one switch")
        if len(endpoint_switch) != n_endpoints or len(endpoint_port) != n_endpoints:
            raise ConfigurationError(
                "endpoint attachment maps must cover every endpoint"
            )
        self.name = name
        self.n_endpoints = n_endpoints
        self.switch_ports = switch_ports
        self.endpoint_switch = endpoint_switch
        self.endpoint_port = endpoint_port
        self.links = links
        # trunk groups: (a, b) with a < b -> the parallel links' indices
        trunks: dict[tuple[int, int], list[int]] = {}
        for link in links:
            trunks.setdefault((link.a, link.b), []).append(link.index)
        self._trunks: dict[tuple[int, int], tuple[int, ...]] = {
            pair: tuple(ids) for pair, ids in trunks.items()
        }
        neighbors: dict[int, set[int]] = {}
        for a, b in self._trunks:
            neighbors.setdefault(a, set()).add(b)
            neighbors.setdefault(b, set()).add(a)
        self._neighbors: tuple[tuple[int, ...], ...] = tuple(
            tuple(sorted(neighbors.get(s, ()))) for s in range(self.n_switches)
        )
        self._routes: dict[tuple[int, int], tuple[int, ...] | None] = {}
        self._validate()

    # -- construction helpers ----------------------------------------------------

    @classmethod
    def single_switch(cls, n_endpoints: int) -> "Topology":
        """The classic shape: one crossbar, endpoint ``i`` on local port ``i``."""
        return cls(
            name="single-switch",
            n_endpoints=n_endpoints,
            switch_ports=(n_endpoints,),
            endpoint_switch=(0,) * n_endpoints,
            endpoint_port=tuple(range(n_endpoints)),
            links=(),
        )

    def _validate(self) -> None:
        n_sw = self.n_switches
        used: list[set[int]] = [set() for _ in range(n_sw)]
        for e in range(self.n_endpoints):
            sw, port = self.endpoint_switch[e], self.endpoint_port[e]
            if not 0 <= sw < n_sw:
                raise ConfigurationError(f"endpoint {e} on unknown switch {sw}")
            self._claim_port(used, sw, port, f"endpoint {e}")
        for pos, link in enumerate(self.links):
            if link.index != pos:
                raise ConfigurationError(
                    f"link at position {pos} carries index {link.index}"
                )
            if not 0 <= link.a < n_sw or not 0 <= link.b < n_sw:
                raise ConfigurationError(f"link {pos} touches an unknown switch")
            self._claim_port(used, link.a, link.a_port, f"link {pos}")
            self._claim_port(used, link.b, link.b_port, f"link {pos}")

    def _claim_port(
        self, used: list[set[int]], switch: int, port: int, owner: str
    ) -> None:
        if not 0 <= port < self.switch_ports[switch]:
            raise ConfigurationError(
                f"{owner}: port {port} out of range for switch {switch} "
                f"({self.switch_ports[switch]} ports)"
            )
        if port in used[switch]:
            raise ConfigurationError(
                f"{owner}: port {port} of switch {switch} is already claimed"
            )
        used[switch].add(port)

    # -- structure ---------------------------------------------------------------

    @property
    def n_switches(self) -> int:
        return len(self.switch_ports)

    @property
    def n_links(self) -> int:
        return len(self.links)

    @property
    def is_single_switch(self) -> bool:
        return self.n_switches == 1

    def trunk_links(self, a: int, b: int) -> tuple[int, ...]:
        """Indices of the parallel links between switches ``a`` and ``b``."""
        key = (a, b) if a < b else (b, a)
        return self._trunks.get(key, ())

    def neighbors(self, switch: int) -> tuple[int, ...]:
        """Switches reachable from ``switch`` over at least one trunk."""
        return self._neighbors[switch]

    # -- deterministic path selection ----------------------------------------------

    def route(
        self, src: int, dst: int, healthy: np.ndarray | None = None
    ) -> tuple[int, ...] | None:
        """Shortest switch path from endpoint ``src`` to endpoint ``dst``.

        Returns the sequence of switch indices the circuit traverses
        (length 1 when both endpoints share a switch), or ``None`` when no
        healthy path exists.  ``healthy`` is an optional per-link boolean
        mask; a trunk is usable while at least one of its parallel links
        is healthy.  Among equal-cost next hops the choice is a fixed
        deterministic mix of the endpoint pair, so routes are
        reproducible while different pairs spread over a fat tree's
        multi-paths.
        """
        if healthy is not None:
            return self._shortest_path(src, dst, healthy)
        key = (src, dst)
        if key not in self._routes:
            self._routes[key] = self._shortest_path(src, dst, None)
        return self._routes[key]

    def _shortest_path(
        self, src: int, dst: int, healthy: np.ndarray | None
    ) -> tuple[int, ...] | None:
        a = self.endpoint_switch[src]
        b = self.endpoint_switch[dst]
        if a == b:
            return (a,)
        dist = self._distances_to(b, healthy)
        if dist[a] < 0:
            return None
        path = [a]
        here = a
        while here != b:
            candidates = [
                nxt
                for nxt in self._neighbors[here]
                if dist[nxt] == dist[here] - 1
                and self._trunk_usable(here, nxt, healthy)
            ]
            # BFS reached `here`, so a strictly-closer healthy neighbor exists
            assert candidates, "inconsistent BFS distances"
            pick = (src * _SPREAD_MIX + dst) % len(candidates)
            here = candidates[pick]
            path.append(here)
        return tuple(path)

    def _trunk_usable(self, a: int, b: int, healthy: np.ndarray | None) -> bool:
        ids = self.trunk_links(a, b)
        if not ids:
            return False
        if healthy is None:
            return True
        return bool(any(healthy[i] for i in ids))

    def _distances_to(self, target: int, healthy: np.ndarray | None) -> list[int]:
        """BFS hop distances to ``target`` (-1: unreachable)."""
        dist = [-1] * self.n_switches
        dist[target] = 0
        frontier: deque[int] = deque((target,))
        while frontier:
            here = frontier.popleft()
            for nxt in self._neighbors[here]:
                if dist[nxt] < 0 and self._trunk_usable(here, nxt, healthy):
                    dist[nxt] = dist[here] + 1
                    frontier.append(nxt)
        return dist

    def diameter(self) -> int:
        """Largest switch count any endpoint pair's route traverses."""
        switches = sorted({self.endpoint_switch[e] for e in range(self.n_endpoints)})
        worst = 1
        for s in switches:
            dist = self._distances_to(s, None)
            for t in switches:
                if dist[t] < 0:
                    raise ConfigurationError(
                        f"topology {self.name!r} is disconnected "
                        f"(switch {t} cannot reach switch {s})"
                    )
                worst = max(worst, dist[t] + 1)
        return worst

    # -- fabric constraint ---------------------------------------------------------

    def trunk_loads(
        self, conns: Iterable[tuple[int, int]]
    ) -> dict[tuple[int, int], int]:
        """Connections per directed switch hop ``(a, b)`` along :meth:`route`.

        Trunks are full duplex, so ``(a, b)`` and ``(b, a)`` are separate
        resources; a connection between two endpoints of one switch loads
        no hop at all.
        """
        loads: dict[tuple[int, int], int] = {}
        for u, v in conns:
            path = self.route(u, v)
            if path is None:
                raise ConfigurationError(
                    f"topology {self.name!r} has no route {u} -> {v}"
                )
            for hop in zip(path, path[1:]):
                loads[hop] = loads.get(hop, 0) + 1
        return loads

    def is_realizable(self, config: ConfigMatrix) -> bool:
        """Can ``config``'s connections share one slot of this switch graph?

        The :class:`repro.sched.constrained.FabricConstraint` predicate: no
        directed hop carries more connections than it has parallel trunk
        links.  Port exclusivity is the configuration's own invariant, so
        a single switch (the crossbar) admits every partial permutation.
        """
        return all(
            load <= len(self.trunk_links(a, b))
            for (a, b), load in self.trunk_loads(config.connections()).items()
        )

    # -- timing --------------------------------------------------------------------

    def path_latency_ps(self, params: SystemParams, n_switches: int) -> int:
        """Established-pipe fill time over ``n_switches`` passive switches.

        NIC + SerDes + (cable + LVDS hop) per switch + final cable +
        SerDes + NIC — the same formula as
        :meth:`repro.networks.multihop.MultiHopModel.tdm_path_fill_ps`,
        and equal to :attr:`repro.params.SystemParams.pipe_latency_ps`
        for a single switch.
        """
        if n_switches < 1:
            raise ConfigurationError("a path traverses at least one switch")
        per_hop = params.cable_ps + params.lvds_switch_ps
        return (
            params.nic_delay_ps
            + params.serdes_ps
            + per_hop * n_switches
            + params.cable_ps
            + params.serdes_ps
            + params.nic_delay_ps
        )

    def __repr__(self) -> str:
        return (
            f"Topology({self.name!r}: {self.n_endpoints} endpoints, "
            f"{self.n_switches} switches, {self.n_links} links)"
        )
