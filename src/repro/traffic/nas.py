"""NAS-like multi-phase synthetic traces.

The paper selected its four test patterns *"based on a study of the NAS
benchmarks that contain many statically known communication operations that
do not require run-time prediction.  The remaining communication operations
in the NAS benchmarks can be easily predicted by simple hardware
predictors."*

:class:`NasLikeTrace` synthesises a program in that spirit: a seeded
sequence of phases drawn from the archetypes NAS codes exhibit —

* ``stencil`` — nearest-neighbour exchange (CG/BT/SP/LU halo swaps),
* ``transpose`` — all-to-all (FT's global transpose),
* ``reduce`` — many-to-one towards a root (MG/CG reductions),
* ``broadcast`` — one-to-many from a root,
* ``random`` — a small unpredictable remainder.

Each phase reports its statically-known connection set, so the trace
exercises the compiled-communication and predictor layers end to end.
"""

from __future__ import annotations

from ..errors import TrafficError
from ..sim.rng import RngStreams
from ..types import Connection, Message
from .base import TrafficPattern, TrafficPhase, mesh_dims
from .mesh import torus_neighbors

__all__ = ["NasLikeTrace", "PHASE_ARCHETYPES"]

PHASE_ARCHETYPES = ("stencil", "transpose", "reduce", "broadcast", "random")

#: share of a ``random`` phase's connections the compiler still knows
_STATIC_FRACTION = 0.9


class NasLikeTrace(TrafficPattern):
    """A randomised multi-phase program trace in the NAS benchmark style."""

    name = "nas-like"

    def __init__(
        self,
        n_ports: int,
        size_bytes: int,
        n_phases: int = 8,
        rounds_per_phase: int = 4,
    ) -> None:
        super().__init__(n_ports, size_bytes)
        if n_phases < 1 or rounds_per_phase < 1:
            raise TrafficError("phase and round counts must be positive")
        mesh_dims(n_ports)  # stencil phases need a mesh factorisation
        self.n_phases = n_phases
        self.rounds_per_phase = rounds_per_phase

    def build_phases(self, rng: RngStreams) -> list[TrafficPhase]:
        gen = rng.get(self.name)
        nbrs = torus_neighbors(self.n_ports)
        phases: list[TrafficPhase] = []
        for p in range(self.n_phases):
            kind = PHASE_ARCHETYPES[int(gen.integers(len(PHASE_ARCHETYPES)))]
            builder = getattr(self, f"_build_{kind}")
            phases.append(builder(p, gen, nbrs))
        return phases

    # -- archetype builders ------------------------------------------------------

    def _build_stencil(self, p, gen, nbrs) -> TrafficPhase:
        msgs: list[Message] = []
        dirs = ("E", "W", "N", "S")
        for _ in range(self.rounds_per_phase):
            for d in dirs:
                for u in range(self.n_ports):
                    msgs.append(self._msg(u, nbrs[u][d]))
        static = {Connection(u, nbrs[u][d]) for u in range(self.n_ports) for d in dirs}
        return TrafficPhase(f"phase{p}-stencil", msgs, static_conns=static)

    def _build_transpose(self, p, gen, nbrs) -> TrafficPhase:
        n = self.n_ports
        msgs = [
            self._msg(u, (u + s) % n)
            for s in range(1, n)
            for u in range(n)
        ]
        static = {Connection(u, v) for u in range(n) for v in range(n) if u != v}
        return TrafficPhase(f"phase{p}-transpose", msgs, static_conns=static)

    def _build_reduce(self, p, gen, nbrs) -> TrafficPhase:
        n = self.n_ports
        root = int(gen.integers(n))
        msgs = [
            self._msg(u, root)
            for _ in range(self.rounds_per_phase)
            for u in range(n)
            if u != root
        ]
        static = {Connection(u, root) for u in range(n) if u != root}
        return TrafficPhase(f"phase{p}-reduce", msgs, static_conns=static)

    def _build_broadcast(self, p, gen, nbrs) -> TrafficPhase:
        n = self.n_ports
        root = int(gen.integers(n))
        msgs = [
            self._msg(root, v)
            for _ in range(self.rounds_per_phase)
            for v in range(n)
            if v != root
        ]
        static = {Connection(root, v) for v in range(n) if v != root}
        return TrafficPhase(f"phase{p}-broadcast", msgs, static_conns=static)

    def _build_random(self, p, gen, nbrs) -> TrafficPhase:
        n = self.n_ports
        msgs: list[Message] = []
        static: set[Connection] = set()
        for _ in range(self.rounds_per_phase):
            coins = gen.random(n)
            draws = gen.integers(0, n - 1, size=n)
            for u in range(n):
                dst = int(draws[u])
                if dst >= u:
                    dst += 1
                msgs.append(self._msg(u, dst))
                if coins[u] < _STATIC_FRACTION:
                    static.add(Connection(u, dst))
        return TrafficPhase(f"phase{p}-random", msgs, static_conns=static)
