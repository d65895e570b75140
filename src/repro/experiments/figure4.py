"""Experiment F4: the Figure 4 sweep.

Four traffic patterns x four switching schemes x message sizes 8..2048
bytes, reporting bandwidth efficiency.  The paper's own reading of its
figure (checked by the integration tests):

* **Scatter** — sharp efficiency rise between 32 and 64 bytes, then a
  plateau out to 2048 (the 80-byte slot quantisation); preload and dynamic
  TDM nearly identical.
* **Random Mesh** — both TDM variants beat wormhole and circuit, and sit
  within ~10 % of each other; circuit improves with message size.
* **Ordered Mesh** — preload wins; dynamic TDM close (the 4-destination
  working set fits the degree-4 cache).
* **Two Phase** — preload wins; dynamic TDM falls below wormhole (the
  all-to-all phase thrashes a degree-4 dynamically-scheduled cache).

This module owns the (pattern x scheme x size) grid; the scheduler
bake-off (:mod:`repro.experiments.compare`) runs it with two more
entrants.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

from ..exec import ExecStats, map_cells
from ..metrics.report import format_csv, format_series
from ..networks.registry import RunSpec, build_network
from ..params import PAPER_PARAMS, SystemParams
from ..traffic.base import TrafficPattern
from ..traffic.mesh import OrderedMeshPattern, RandomMeshPattern
from ..traffic.scatter import ScatterPattern
from ..traffic.twophase import TwoPhasePattern
from .common import DEFAULT_SEED, FIGURE4_SCHEMES, ExperimentPoint, measure

__all__ = [
    "MESSAGE_SIZES",
    "Figure4Cell",
    "figure4_patterns",
    "run_figure4_cell",
    "Figure4Result",
    "run_grid",
    "run_figure4",
]

#: the paper sweeps message sizes from 8 to 2048 bytes
MESSAGE_SIZES: tuple[int, ...] = (8, 16, 32, 64, 128, 256, 512, 1024, 2048)


def figure4_patterns(
    params: SystemParams, mesh_rounds: int = 4, nn_rounds: int = 16
) -> dict[str, Callable[[int], TrafficPattern]]:
    """The four panels of Figure 4 as size -> pattern factories."""
    n = params.n_ports
    return {
        "scatter": lambda size: ScatterPattern(n, size),
        "random-mesh": lambda size: RandomMeshPattern(n, size, rounds=mesh_rounds),
        "ordered-mesh": lambda size: OrderedMeshPattern(n, size, rounds=mesh_rounds),
        "two-phase": lambda size: TwoPhasePattern(n, size, nn_rounds=nn_rounds),
    }


@dataclass(slots=True, frozen=True)
class Figure4Cell:
    """One independent grid cell: (pattern, scheme, size).

    Figure 4 and the ``repro compare`` bake-off run the same grid, and
    so the same cells; they differ only in which schemes enter.

    A cell is a plain value (see :mod:`repro.exec.canonical`): everything
    the simulation depends on rides inside it, so the execution engine can
    address its payload by content.  The workload ``seed`` is the sweep's
    root seed — every scheme must face the byte-identical traffic
    realisation (the comparison rule in :mod:`repro.experiments.common`),
    so cells deliberately do *not* use per-cell derived seeds.
    """

    pattern: str
    scheme: str
    size_bytes: int
    params: SystemParams
    k: int
    mesh_rounds: int
    nn_rounds: int
    seed: int


def run_figure4_cell(cell: Figure4Cell) -> ExperimentPoint:
    """Simulate one grid cell (the engine's runner function).

    The point carries the cell's registry name (``"dynamic-tdm"``), not
    the network's class label, so every sweep over this grid — Figure 4
    and the ``repro compare`` bake-off — labels its points alike.
    """
    make_pattern = figure4_patterns(cell.params, cell.mesh_rounds, cell.nn_rounds)
    network = build_network(RunSpec(cell.scheme, cell.params, k=cell.k))
    point = measure(make_pattern[cell.pattern](cell.size_bytes), network, seed=cell.seed)
    return replace(point, scheme=cell.scheme)


@dataclass
class Figure4Result:
    """Efficiency series per pattern per scheme, aligned with ``sizes``."""

    sizes: tuple[int, ...]
    series: dict[str, dict[str, list[float]]] = field(default_factory=dict)
    points: list[ExperimentPoint] = field(default_factory=list)
    #: executor telemetry for the sweep that produced this result
    exec_stats: ExecStats | None = None

    def efficiency(self, pattern: str, scheme: str, size: int) -> float:
        return self.series[pattern][scheme][self.sizes.index(size)]

    def format(self) -> str:
        out = []
        for pattern, schemes in self.series.items():
            out.append(
                format_series(
                    "bytes",
                    list(self.sizes),
                    schemes,
                    title=f"Figure 4 — {pattern} (bandwidth efficiency)",
                )
            )
        return "\n".join(out)

    def csv(self, pattern: str) -> str:
        return format_csv("bytes", list(self.sizes), self.series[pattern])


def run_grid(
    entrants: Sequence[str],
    params: SystemParams,
    sizes: Sequence[int],
    patterns: Sequence[str] | None,
    schemes: Sequence[str] | None,
    k: int,
    mesh_rounds: int,
    nn_rounds: int,
    seed: int,
    *,
    label: str,
    jobs: int | None,
    cache: object | None,
    refresh: bool,
    progress: bool,
) -> Figure4Result:
    """Run the (pattern x scheme x size) grid over some of ``entrants``.

    ``patterns``/``schemes`` restrict the grid (None = every pattern,
    every entrant); an unknown name raises :class:`KeyError`.  Cells fan
    out over ``jobs`` worker processes (see :func:`repro.exec.resolve_jobs`);
    the result is bit-identical for any job count, and ``jobs=1`` runs
    everything in-process in grid order.
    """
    pattern_factories = figure4_patterns(params, mesh_rounds, nn_rounds)
    wanted_patterns = list(patterns or pattern_factories)
    wanted_schemes = list(schemes or entrants)
    for name in wanted_patterns:
        if name not in pattern_factories:
            raise KeyError(name)
    for name in wanted_schemes:
        if name not in entrants:
            raise KeyError(name)
    cells = [
        Figure4Cell(
            pattern=pattern_name,
            scheme=scheme_name,
            size_bytes=size,
            params=params,
            k=k,
            mesh_rounds=mesh_rounds,
            nn_rounds=nn_rounds,
            seed=seed,
        )
        for pattern_name in wanted_patterns
        for scheme_name in wanted_schemes
        for size in sizes
    ]
    outcome = map_cells(
        run_figure4_cell,
        cells,
        root_seed=seed,
        jobs=jobs,
        cache=cache,
        refresh=refresh,
        label=label,
        progress=progress,
    )
    result = Figure4Result(sizes=tuple(sizes), exec_stats=outcome.stats)
    points = iter(outcome.payloads)
    for pattern_name in wanted_patterns:
        result.series[pattern_name] = {}
        for scheme_name in wanted_schemes:
            series: list[float] = []
            for _ in sizes:
                point = next(points)
                series.append(point.efficiency)
                result.points.append(point)
            result.series[pattern_name][scheme_name] = series
    return result


def run_figure4(
    params: SystemParams = PAPER_PARAMS,
    sizes: Sequence[int] = MESSAGE_SIZES,
    patterns: Sequence[str] | None = None,
    schemes: Sequence[str] | None = None,
    k: int = 4,
    mesh_rounds: int = 4,
    nn_rounds: int = 16,
    seed: int = DEFAULT_SEED,
    *,
    jobs: int | None = None,
    cache: object | None = None,
    refresh: bool = False,
    progress: bool = False,
) -> Figure4Result:
    """Run (a subset of) the Figure 4 sweep: :func:`run_grid` over the
    paper's four schemes.

    The benchmarks run panels separately so each appears as its own bench.
    """
    return run_grid(
        FIGURE4_SCHEMES,
        params,
        sizes,
        patterns,
        schemes,
        k,
        mesh_rounds,
        nn_rounds,
        seed,
        label="figure4",
        jobs=jobs,
        cache=cache,
        refresh=refresh,
        progress=progress,
    )
