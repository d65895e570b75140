"""A miniature compiled-communication frontend.

Sections 3.1 and 3.3 of the paper assume a compiler that can

* identify the communication working set of each program region (loop
  nests with stencil/shift/collective operations),
* emit **preload directives** for the statically-known part, and
* insert **flush directives** at region boundaries where the working set
  changes (so the next region does not mis-predict on stale connections).

This module is that compiler for a small structured IR.  A program is a
tree of :class:`Region` nodes; leaves are communication statements
(:class:`Shift`, :class:`Stencil`, :class:`Gather`, :class:`Scatter`,
:class:`Unknown`), and :class:`Loop` / :class:`Seq` compose them.  :func:`compile_program` walks the tree and produces a
:class:`CompiledSchedule`: per phase, the static connection set, the
batched preload program sized to the register budget, whether a flush is
needed at entry, and the messages the phase will send.
:meth:`CompiledSchedule.run_spec` bridges the result to the scheme
registry (:mod:`repro.networks.registry`), and
:meth:`CompiledSchedule.run` executes it end to end.

The point is not to parse a real language but to reproduce the *analysis*:
working sets derive from the operations' index maps, loops multiply trip
counts without growing working sets (temporal locality), and an
:class:`Unknown` statement poisons only the static part of its phase.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from ..networks.base import RunResult
    from ..networks.registry import RunSpec
    from ..params import SystemParams

from ..errors import ConfigurationError
from ..traffic.base import TrafficPhase, assign_seq, mesh_dims
from ..traffic.mesh import torus_neighbors
from ..types import Connection, Message
from .directives import PreloadProgram
from .patterns import StaticPattern

__all__ = [
    "Comm",
    "Shift",
    "Stencil",
    "Gather",
    "Scatter",
    "Unknown",
    "Loop",
    "Seq",
    "CompiledPhase",
    "CompiledSchedule",
    "compile_program",
]


# -- the IR ------------------------------------------------------------------


class Region(ABC):
    """A node of the program tree."""


class Comm(Region, ABC):
    """A communication statement: knows its connections and messages."""

    @abstractmethod
    def connections(self, n: int) -> set[Connection]:
        """The connection set this statement uses on ``n`` nodes."""

    @abstractmethod
    def messages(self, n: int, size: int) -> list[Message]:
        """One execution's messages (unsequenced)."""

    #: statically analysable? (Unknown overrides)
    static: bool = True


@dataclass(frozen=True)
class Shift(Comm):
    """Every node sends to ``(node + offset) mod n``."""

    offset: int

    def connections(self, n: int) -> set[Connection]:
        if self.offset % n == 0:
            raise ConfigurationError("shift offset maps nodes to themselves")
        return {Connection(u, (u + self.offset) % n) for u in range(n)}

    def messages(self, n: int, size: int) -> list[Message]:
        return [Message(src=u, dst=(u + self.offset) % n, size=size) for u in range(n)]


@dataclass(frozen=True)
class Stencil(Comm):
    """Nearest-neighbour halo exchange on the 2-D torus (E, W, N, S)."""

    def connections(self, n: int) -> set[Connection]:
        mesh_dims(n)
        nbrs = torus_neighbors(n)
        return {
            Connection(u, v) for u, dirs in nbrs.items() for v in dirs.values()
        }

    def messages(self, n: int, size: int) -> list[Message]:
        nbrs = torus_neighbors(n)
        return [
            Message(src=u, dst=nbrs[u][d], size=size)
            for d in ("E", "W", "N", "S")
            for u in range(n)
        ]


@dataclass(frozen=True)
class Gather(Comm):
    """All nodes send to one root (a reduction's communication)."""

    root: int = 0

    def connections(self, n: int) -> set[Connection]:
        return {Connection(u, self.root) for u in range(n) if u != self.root}

    def messages(self, n: int, size: int) -> list[Message]:
        return [
            Message(src=u, dst=self.root, size=size)
            for u in range(n)
            if u != self.root
        ]


@dataclass(frozen=True)
class Scatter(Comm):
    """One root sends to all nodes (a broadcast's communication)."""

    root: int = 0

    def connections(self, n: int) -> set[Connection]:
        return {Connection(self.root, v) for v in range(n) if v != self.root}

    def messages(self, n: int, size: int) -> list[Message]:
        return [
            Message(src=self.root, dst=v, size=size)
            for v in range(n)
            if v != self.root
        ]


@dataclass(frozen=True)
class Unknown(Comm):
    """Data-dependent communication the compiler cannot analyse.

    Carries explicit (src, dst) pairs — known to *us* for simulation, but
    marked non-static so the compiler treats them as run-time traffic.
    """

    pairs: tuple[tuple[int, int], ...]
    static = False

    def connections(self, n: int) -> set[Connection]:
        return {Connection(u, v) for u, v in self.pairs}

    def messages(self, n: int, size: int) -> list[Message]:
        return [Message(src=u, dst=v, size=size) for u, v in self.pairs]


@dataclass(frozen=True)
class Loop(Region):
    """Repeat the body ``trips`` times — temporal locality incarnate."""

    trips: int
    body: tuple[Region, ...]

    def __post_init__(self) -> None:
        if self.trips < 1:
            raise ConfigurationError("loop needs at least one trip")


@dataclass(frozen=True)
class Seq(Region):
    """Sequential composition of regions."""

    body: tuple[Region, ...]


# -- compilation --------------------------------------------------------------


@dataclass
class CompiledPhase:
    """One program phase as the compiler sees it."""

    name: str
    n: int
    statements: list[Comm]
    trips: int
    static_conns: set[Connection]
    dynamic_conns: set[Connection]
    program: PreloadProgram | None
    flush_on_entry: bool

    @property
    def working_set_size(self) -> int:
        return len(self.static_conns | self.dynamic_conns)

    @property
    def optimal_degree(self) -> int:
        """The phase's minimal multiplexing degree k_j (Section 2)."""
        from .coloring import connection_degree

        return connection_degree(self.static_conns | self.dynamic_conns, self.n)


@dataclass
class CompiledSchedule:
    """The compiler's output for a whole program."""

    n: int
    k_preload: int
    phases: list[CompiledPhase] = field(default_factory=list)

    def to_traffic(self, size_bytes: int) -> list[TrafficPhase]:
        """Materialise runnable traffic phases (messages get fresh seqs)."""
        out: list[TrafficPhase] = []
        for cp in self.phases:
            msgs: list[Message] = []
            for _ in range(cp.trips):
                for stmt in cp.statements:
                    msgs.extend(stmt.messages(self.n, size_bytes))
            phase = TrafficPhase(
                cp.name,
                msgs,
                static_conns=set(cp.static_conns),
                preload_configs=(
                    [cfg for batch in cp.program.batches for cfg in batch]
                    if cp.program is not None
                    else None
                ),
            )
            out.append(phase)
        assign_seq(out)
        return out

    @property
    def flush_points(self) -> list[int]:
        """Indices of phases that begin with a flush directive."""
        return [i for i, p in enumerate(self.phases) if p.flush_on_entry]

    def run_spec(
        self,
        params: SystemParams,
        k: int,
        *,
        injection_window: int | None = None,
        **options: Any,
    ) -> RunSpec:
        """A scheme-registry spec that executes this schedule.

        Resolves to ``hybrid`` when the compiler reserved preload
        registers and plain ``dynamic-tdm`` otherwise, and honours the
        compiler's flush directives by enabling ``flush_on_phase``
        whenever any phase begins with one (callers can override it
        through ``options``).
        """
        # imported here: networks.tdm imports this package at module load
        from ..networks.registry import RunSpec

        opts = dict(options)
        if self.flush_points:
            opts.setdefault("flush_on_phase", True)
        return RunSpec(
            scheme="hybrid" if self.k_preload else "dynamic-tdm",
            params=params,
            k=k,
            k_preload=self.k_preload or None,
            injection_window=injection_window,
            options=opts,
        )

    def run(
        self,
        params: SystemParams,
        k: int,
        size_bytes: int,
        *,
        pattern_name: str = "compiled-program",
        injection_window: int | None = None,
        **options: Any,
    ) -> RunResult:
        """Materialise the traffic and run it through the registry."""
        from ..networks.registry import build_network

        spec = self.run_spec(
            params, k, injection_window=injection_window, **options
        )
        phases = self.to_traffic(size_bytes)
        return build_network(spec).run(phases, pattern_name=pattern_name)


def compile_program(
    program: Region,
    n: int,
    k_preload: int,
    *,
    max_batches: int | None = None,
) -> CompiledSchedule:
    """Run the compiled-communication analysis over a program tree.

    Phase formation: each **loop** becomes one phase (its body's working
    set is reused ``trips`` times — exactly the temporal locality TDM
    caches); consecutive non-loop statements coalesce into one phase.
    For each phase the statically-analysable connections are compiled
    into a batched :class:`PreloadProgram`; a phase whose compiled
    program would exceed ``max_batches`` batches is left dynamic (the
    heuristic of Section 3.3: preloading only pays when the working set
    (nearly) fits the registers).  A flush is emitted at every phase
    boundary where the previous static working set does not cover the new
    one.
    """
    if k_preload < 1:
        raise ConfigurationError("k_preload must be at least 1")
    schedule = CompiledSchedule(n=n, k_preload=k_preload)
    groups = _form_phases(program)
    prev_static: set[Connection] = set()
    for i, (name, statements, trips) in enumerate(groups):
        static: set[Connection] = set()
        dynamic: set[Connection] = set()
        for stmt in statements:
            conns = stmt.connections(n)
            (static if stmt.static else dynamic).update(conns)
        prog: PreloadProgram | None = None
        if static:
            pattern = StaticPattern(n, static)
            prog = PreloadProgram.compile(pattern, k_preload)
            if max_batches is not None and prog.n_batches > max_batches:
                prog = None
                dynamic |= static
                static = set()
        new_set = static | dynamic
        flush = i > 0 and bool(prev_static - new_set)
        schedule.phases.append(
            CompiledPhase(
                name=name,
                n=n,
                statements=list(statements),
                trips=trips,
                static_conns=static,
                dynamic_conns=dynamic,
                program=prog,
                flush_on_entry=flush,
            )
        )
        prev_static = static
    return schedule


def _form_phases(region: Region) -> list[tuple[str, list[Comm], int]]:
    """Flatten the tree into (name, statements, trips) phase groups."""
    groups: list[tuple[str, list[Comm], int]] = []
    pending: list[Comm] = []
    counter = [0]

    def flush_pending() -> None:
        if pending:
            groups.append((f"phase{counter[0]}", list(pending), 1))
            counter[0] += 1
            pending.clear()

    def walk(node: Region) -> None:
        if isinstance(node, Loop):
            flush_pending()
            stmts: list[Comm] = []
            _collect(node.body, stmts)
            groups.append((f"phase{counter[0]}-loop", stmts, node.trips))
            counter[0] += 1
        elif isinstance(node, Seq):
            for child in node.body:
                walk(child)
        elif isinstance(node, Comm):
            pending.append(node)
        else:  # pragma: no cover - the IR is closed
            raise ConfigurationError(f"unknown region node {node!r}")

    def _collect(body: tuple[Region, ...], out: list[Comm]) -> None:
        for child in body:
            if isinstance(child, Comm):
                out.append(child)
            elif isinstance(child, Loop):
                # nested loops fold into the phase; trips multiply the
                # message stream, not the working set, so for phase
                # formation we keep the statements once per outer trip
                for _ in range(child.trips):
                    _collect(child.body, out)
            elif isinstance(child, Seq):
                _collect(child.body, out)
            else:  # pragma: no cover
                raise ConfigurationError(f"unknown region node {child!r}")

    walk(region)
    flush_pending()
    return groups
