"""Experiment C1: the scheduler bake-off (``repro compare``).

One sweep, every discipline: the paper's four Figure-4 schemes plus the
two bake-off entrants (``islip``, ``solstice-tdm``) over all four traffic
patterns, reporting bandwidth efficiency per (pattern, scheme, size) cell
and a ranked summary.  The comparison rules of
:mod:`repro.experiments.common` apply unchanged — byte-identical traffic
per scheme, scheme-independent lower bound — so a ranking row is a fair
fight by construction.

The report also records the *schedule coverage* duel that motivates the
Solstice-style computer: for each pattern's demand matrix (and one seeded
skewed matrix, where the effect is starkest) it compares the fraction of
demanded traffic reachable within the first ``k`` configurations —
the preload register file's depth — under plain edge colouring versus
demand-ranked Solstice rounds.  Colouring ignores demand weights, so its
register-file prefix is an arbitrary ``k``-subset of the colour classes;
Solstice packs the heaviest edges first.

The cells are Figure 4's (:func:`repro.experiments.figure4.run_grid`
runs both sweeps); the CSV is bit-identical across invocations and
across ``--jobs`` counts (checked in CI), and the coverage rows are pure
seeded functions of the grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from ..compiled.coloring import decompose
from ..exec import ExecStats
from ..metrics.report import format_series, format_table
from ..params import PAPER_PARAMS, SystemParams
from ..sched.solstice import schedule_coverage, solstice_schedule
from ..sim.rng import RngStreams
from ..traffic.base import TrafficPhase
from .common import DEFAULT_SEED, ExperimentPoint
from .figure4 import figure4_patterns, run_grid

__all__ = [
    "COMPARE_SCHEMES",
    "COMPARE_SIZES",
    "CoverageRow",
    "coverage_rows",
    "CompareResult",
    "run_compare",
]

#: every discipline in the bake-off, baselines first (presentation order)
COMPARE_SCHEMES: tuple[str, ...] = (
    "wormhole",
    "circuit",
    "dynamic-tdm",
    "preload",
    "islip",
    "solstice-tdm",
)

#: default message sizes — the small/medium/large corners of the Figure 4
#: sweep (the full nine-point sweep stays available via ``--sizes``)
COMPARE_SIZES: tuple[int, ...] = (64, 256, 1024)


# -- the coverage duel ------------------------------------------------------------


@dataclass(slots=True, frozen=True)
class CoverageRow:
    """Colouring vs Solstice coverage of one demand matrix at one budget."""

    demand_name: str
    n_ports: int
    edges: int
    budget: int
    coloring_coverage: float
    solstice_coverage: float

    @property
    def winner(self) -> str:
        if self.solstice_coverage > self.coloring_coverage:
            return "solstice"
        if self.coloring_coverage > self.solstice_coverage:
            return "coloring"
        return "tie"


def _phase_demand(phase: TrafficPhase) -> dict[tuple[int, int], int]:
    """Total bytes demanded per (src, dst) edge of one phase."""
    demand: dict[tuple[int, int], int] = {
        (u, v): 0 for u, v in phase.static_conns
    }
    for msg in phase.messages:
        key = (msg.src, msg.dst)
        demand[key] = demand.get(key, 0) + msg.size
    return demand


def _skewed_demand(n: int, seed: int) -> dict[tuple[int, int], int]:
    """A seeded sparse demand matrix with multi-decade weight skew.

    Roughly ``2.5 n`` distinct edges with byte counts spanning 10..10^5 —
    the regime where demand-blind colouring leaves the heavy edges outside
    the register-file prefix.
    """
    gen = RngStreams(seed).get(f"compare-skewed-{n}")
    target = min(n * (n - 1), (n * 5) // 2)
    edges: set[tuple[int, int]] = set()
    while len(edges) < target:
        u = int(gen.integers(0, n))
        v = int(gen.integers(0, n - 1))
        if v >= u:
            v += 1  # uniform over destinations != source
        edges.add((u, v))
    return {e: 10 ** int(gen.integers(1, 6)) for e in sorted(edges)}


def _coverage_of(
    demand: Mapping[tuple[int, int], int], n: int, budget: int
) -> tuple[float, float]:
    """(colouring, solstice) coverage of ``demand`` within ``budget`` configs."""
    conns = sorted(demand)
    coloring_cfgs = decompose(conns, n)
    solstice_cfgs = [cfg for cfg, _ in solstice_schedule(demand, n)]
    return (
        schedule_coverage(coloring_cfgs, demand, budget=budget),
        schedule_coverage(solstice_cfgs, demand, budget=budget),
    )


def coverage_rows(
    params: SystemParams,
    k: int = 4,
    mesh_rounds: int = 4,
    nn_rounds: int = 16,
    size_bytes: int = 256,
    seed: int = DEFAULT_SEED,
    patterns: Sequence[str] | None = None,
) -> list[CoverageRow]:
    """The coverage duel over every pattern's demand plus a skewed matrix.

    Each pattern contributes its first phase's (src, dst) -> bytes matrix
    at one representative message size; the extra ``skewed`` row is the
    seeded matrix of :func:`_skewed_demand`, where the colouring's
    demand-blindness costs the most.  Budget is ``k`` — the depth of the
    preload register file the schedule must fit ahead of the first swap.
    """
    factories = figure4_patterns(params, mesh_rounds, nn_rounds)
    wanted = list(patterns or factories)
    demands: list[tuple[str, dict[tuple[int, int], int]]] = []
    for name in wanted:
        phases = factories[name](size_bytes).phases(RngStreams(seed))
        demands.append((name, _phase_demand(phases[0])))
    demands.append(("skewed", _skewed_demand(params.n_ports, seed)))
    rows: list[CoverageRow] = []
    for name, demand in demands:
        coloring_cov, solstice_cov = _coverage_of(demand, params.n_ports, k)
        rows.append(
            CoverageRow(
                demand_name=name,
                n_ports=params.n_ports,
                edges=len(demand),
                budget=k,
                coloring_coverage=coloring_cov,
                solstice_coverage=solstice_cov,
            )
        )
    return rows


# -- the result -------------------------------------------------------------------


@dataclass
class CompareResult:
    """Efficiency series per pattern per scheme, plus the coverage duel."""

    sizes: tuple[int, ...]
    patterns: tuple[str, ...]
    schemes: tuple[str, ...]
    series: dict[str, dict[str, list[float]]] = field(default_factory=dict)
    points: list[ExperimentPoint] = field(default_factory=list)
    coverage: list[CoverageRow] = field(default_factory=list)
    params: SystemParams = PAPER_PARAMS
    k: int = 4
    seed: int = DEFAULT_SEED
    exec_stats: ExecStats | None = None

    def efficiency(self, pattern: str, scheme: str, size: int) -> float:
        return self.series[pattern][scheme][self.sizes.index(size)]

    def mean_efficiency(self, scheme: str) -> float:
        values = [v for p in self.patterns for v in self.series[p][scheme]]
        return sum(values) / len(values) if values else 0.0

    def ranking(self) -> list[tuple[str, float]]:
        """Schemes by mean efficiency across the whole grid, best first."""
        means = [(s, self.mean_efficiency(s)) for s in self.schemes]
        return sorted(means, key=lambda sv: (-sv[1], sv[0]))

    def csv(self) -> str:
        """One flat row per cell, grid order — the determinism contract.

        Every field is derived from simulator state, so the CSV is
        byte-identical across invocations and ``--jobs`` counts (CI
        diffs it both ways).
        """
        rows = [
            "pattern,scheme,bytes,efficiency,makespan_ps,lower_bound_ps,"
            "total_bytes"
        ]
        for p in self.points:
            rows.append(
                f"{p.pattern},{p.scheme},{p.size_bytes},{p.efficiency:.6f},"
                f"{p.makespan_ps},{p.lower_bound_ps},{p.total_bytes}"
            )
        return "\n".join(rows) + "\n"

    def _coverage_table(self) -> str:
        return format_table(
            ["demand", "ports", "edges", "coloring", "solstice", "better"],
            [
                [
                    r.demand_name,
                    r.n_ports,
                    r.edges,
                    f"{r.coloring_coverage:.3f}",
                    f"{r.solstice_coverage:.3f}",
                    r.winner,
                ]
                for r in self.coverage
            ],
            title=f"Preload schedule coverage within k={self.k} configurations",
        )

    def format(self) -> str:
        out = [
            format_table(
                ["rank", "scheme", "mean efficiency"],
                [
                    [i + 1, scheme, f"{mean:.3f}"]
                    for i, (scheme, mean) in enumerate(self.ranking())
                ],
                title="Scheduler bake-off — ranking (mean efficiency, "
                f"{len(self.patterns)} patterns x {len(self.sizes)} sizes)",
            )
        ]
        for pattern in self.patterns:
            out.append(
                format_series(
                    "bytes",
                    list(self.sizes),
                    self.series[pattern],
                    title=f"Bake-off — {pattern} (bandwidth efficiency)",
                )
            )
        if self.coverage:
            out.append(self._coverage_table())
        return "\n".join(out)

    def markdown(self) -> str:
        """The ranked bake-off report (``benchmarks/results/compare_bakeoff.md``)."""
        out = [
            "# Scheduler bake-off",
            "",
            "Generated by `repro compare`: every switching discipline over "
            "the four Figure-4 traffic patterns, byte-identical workloads, "
            "efficiency against the scheme-independent bottleneck bound.",
            "",
            f"- ports: {self.params.n_ports}",
            f"- multiplexing degree k: {self.k}",
            f"- seed: {self.seed}",
            f"- message sizes: {', '.join(str(s) for s in self.sizes)} bytes",
            "",
            "## Ranking — mean bandwidth efficiency across the grid",
            "",
            "| rank | scheme | mean efficiency |",
            "|---:|:---|---:|",
        ]
        for i, (scheme, mean) in enumerate(self.ranking()):
            out.append(f"| {i + 1} | {scheme} | {mean:.3f} |")
        out.append("")
        out.append("## Efficiency by pattern")
        for pattern in self.patterns:
            out.append("")
            out.append(f"### {pattern}")
            out.append("")
            out.append("| bytes | " + " | ".join(self.schemes) + " |")
            out.append("|---:|" + "---:|" * len(self.schemes))
            for i, size in enumerate(self.sizes):
                cells = " | ".join(
                    f"{self.series[pattern][s][i]:.3f}" for s in self.schemes
                )
                out.append(f"| {size} | {cells} |")
        if self.coverage:
            out += [
                "",
                f"## Preload schedule coverage within k={self.k} configurations",
                "",
                "Fraction of demanded bytes whose edge appears in the first "
                "k configurations of the computed schedule — the part the "
                "register file holds before any mid-batch swap.  Plain edge "
                "colouring is demand-blind; Solstice-style rounds pack the "
                "heaviest edges first.",
                "",
                "| demand matrix | ports | edges | coloring | solstice | better |",
                "|:---|---:|---:|---:|---:|:---|",
            ]
            for r in self.coverage:
                out.append(
                    f"| {r.demand_name} | {r.n_ports} | {r.edges} | "
                    f"{r.coloring_coverage:.3f} | {r.solstice_coverage:.3f} | "
                    f"{r.winner} |"
                )
        out.append("")
        return "\n".join(out)


def run_compare(
    params: SystemParams = PAPER_PARAMS,
    sizes: Sequence[int] = COMPARE_SIZES,
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
) -> CompareResult:
    """Run (a subset of) the bake-off: :func:`run_grid` over
    :data:`COMPARE_SCHEMES`, plus the coverage duel.

    The coverage duel is a pure function of (params, k, seed) and runs
    in-process.
    """
    grid = run_grid(
        COMPARE_SCHEMES,
        params,
        sizes,
        patterns,
        schemes,
        k,
        mesh_rounds,
        nn_rounds,
        seed,
        label="compare",
        jobs=jobs,
        cache=cache,
        refresh=refresh,
        progress=progress,
    )
    result = CompareResult(
        sizes=grid.sizes,
        patterns=tuple(grid.series),
        schemes=tuple(schemes or COMPARE_SCHEMES),
        series=grid.series,
        points=grid.points,
        params=params,
        k=k,
        seed=seed,
        exec_stats=grid.exec_stats,
    )
    result.coverage = coverage_rows(
        params,
        k=k,
        mesh_rounds=mesh_rounds,
        nn_rounds=nn_rounds,
        seed=seed,
        patterns=result.patterns,
    )
    return result
