"""Experiment R1: fault-injection campaigns across the switching schemes.

Sweeps the fault arrival rate against the paper's four schemes and
reports how each degrades: delivered-message fraction, effective
bandwidth, and recovery latency.  Three rules keep the comparison honest:

* every scheme at a given rate faces the **same storm** — one
  :class:`~repro.faults.FaultSchedule` is generated per (seed, rate) and
  shared across schemes, so a scheme's score reflects its recovery
  machinery, not luck of the fault draw;
* the workload is fully static (:class:`~repro.traffic.hybrid.HybridPattern`
  at determinism 1.0), the one regime all four schemes — including pure
  preload, which must degrade to dynamic scheduling when faults break its
  pinned program — can serve;
* the schedule horizon is sized from the slowest *healthy* makespan, so
  storms cover whole runs even as faults stretch them.

Schemes differ in their attack surface: wormhole has no request plane or
config registers, so register/SL faults count as *skipped* against it;
circuit switching multiplexes one slot, so a quarantine leaves it no spare
capacity.  The injector's applied/skipped counters make this explicit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..exec import ExecStats, map_cells
from ..faults.injector import FaultInjector
from ..faults.schedule import FaultSchedule
from ..metrics.degradation import DegradationReport, degradation_report
from ..metrics.report import format_csv, format_series
from ..networks.registry import RunSpec, build_network
from ..params import PAPER_PARAMS, SystemParams
from ..sim.rng import RngStreams
from ..traffic.hybrid import HybridPattern
from .common import DEFAULT_SEED, FIGURE4_SCHEMES

__all__ = [
    "FAULT_RATES",
    "FaultCell",
    "run_fault_cell",
    "FaultPoint",
    "FaultsResult",
    "run_faults",
]

#: fault arrival rates swept, in faults per microsecond of simulated time
FAULT_RATES: tuple[float, ...] = (0.0, 0.5, 1.0, 2.0, 4.0)


@dataclass(slots=True, frozen=True)
class FaultPoint:
    """Outcome of one (scheme, fault-rate) campaign."""

    scheme: str
    rate_per_us: float
    report: DegradationReport
    makespan_ps: int
    counters: dict[str, int]


@dataclass(slots=True, frozen=True)
class FaultCell:
    """One (scheme, rate) campaign as a run cell.

    ``rate_per_us == 0`` is the healthy baseline (no injector, unlimited
    wall clock); ``horizon_ps`` is 0 there because no storm is generated.
    For faulted cells the horizon rides in the cell — it is derived from
    the healthy makespans, so the cache key of a campaign automatically
    changes when the healthy behaviour does.
    """

    scheme: str
    rate_per_us: float
    horizon_ps: int
    params: SystemParams
    size_bytes: int
    messages_per_node: int
    n_static: int
    k: int
    injection_window: int | None
    seed: int
    max_wall_s: float | None


def run_fault_cell(cell: FaultCell) -> FaultPoint:
    """Run one fault campaign (or healthy baseline) cell.

    The network is built exactly as a Figure 4 cell builds it (the same
    registry entry, ``k`` and injection window), plus the injector.
    """
    pattern = HybridPattern(
        cell.params.n_ports,
        cell.size_bytes,
        determinism=1.0,
        messages_per_node=cell.messages_per_node,
        n_static=cell.n_static,
    )
    faults = None
    if cell.rate_per_us != 0.0:
        schedule = FaultSchedule.generate(
            seed=cell.seed,
            rate_per_us=cell.rate_per_us,
            horizon_ps=cell.horizon_ps,
            n_ports=cell.params.n_ports,
            k=cell.k,
        )
        faults = FaultInjector(schedule)
    net = build_network(
        RunSpec(
            cell.scheme,
            cell.params,
            k=cell.k,
            injection_window=cell.injection_window,
            faults=faults,
            max_wall_s=cell.max_wall_s,
        )
    )
    run = net.run(pattern.phases(RngStreams(cell.seed)), pattern_name=pattern.name)
    report = degradation_report(run)
    return FaultPoint(
        scheme=cell.scheme,
        rate_per_us=cell.rate_per_us,
        report=report,
        makespan_ps=run.makespan_ps,
        counters=run.counters,
    )


@dataclass
class FaultsResult:
    """Per-scheme degradation series, aligned with ``rates``."""

    rates: tuple[float, ...]
    delivered: dict[str, list[float]] = field(default_factory=dict)
    bandwidth: dict[str, list[float]] = field(default_factory=dict)
    recovery_p99_ns: dict[str, list[float]] = field(default_factory=dict)
    points: list[FaultPoint] = field(default_factory=list)
    #: executor telemetry: the healthy-baseline and campaign stages
    healthy_exec_stats: ExecStats | None = None
    exec_stats: ExecStats | None = None

    def point(self, scheme: str, rate: float) -> FaultPoint:
        for p in self.points:
            if p.scheme == scheme and p.rate_per_us == rate:
                return p
        raise KeyError(f"no campaign for {scheme!r} at {rate}/us")

    def format(self) -> str:
        rates = list(self.rates)
        return "\n".join(
            [
                format_series(
                    "faults/us", rates, self.delivered,
                    title="Fault campaigns — delivered message fraction",
                ),
                format_series(
                    "faults/us", rates, self.bandwidth,
                    title="Fault campaigns — effective bandwidth (B/ns)",
                ),
                format_series(
                    "faults/us", rates, self.recovery_p99_ns,
                    title="Fault campaigns — p99 recovery latency (ns)",
                    precision=0,
                ),
            ]
        )

    def csv(self) -> str:
        columns = {
            f"{scheme}:{metric}": values[scheme]
            for metric, values in (
                ("delivered", self.delivered),
                ("bw", self.bandwidth),
            )
            for scheme in values
        }
        return format_csv("faults_per_us", list(self.rates), columns)


def run_faults(
    params: SystemParams = PAPER_PARAMS,
    rates: Sequence[float] = FAULT_RATES,
    schemes: Sequence[str] | None = None,
    size_bytes: int = 512,
    messages_per_node: int = 8,
    n_static: int = 2,
    k: int = 4,
    injection_window: int | None = 4,
    seed: int = DEFAULT_SEED,
    max_wall_s: float | None = 300.0,
    *,
    jobs: int | None = None,
    cache: object | None = None,
    refresh: bool = False,
    progress: bool = False,
) -> FaultsResult:
    """Run the fault-rate x scheme campaign grid.

    Deterministic end to end: the same (seed, rate, scheme) triple always
    reproduces bit-identical fault timelines, drops, and metrics — for any
    job count.  Two fan-out stages: the healthy baselines run first (they
    are the rate-0 row *and* they size the storm horizon — 2x the slowest
    healthy makespan keeps even badly stretched faulted runs under fire
    throughout), then every (rate > 0, scheme) campaign runs.
    """
    names = list(FIGURE4_SCHEMES if schemes is None else dict.fromkeys(schemes))
    unknown = set(names) - set(FIGURE4_SCHEMES)
    if unknown:
        raise ValueError(f"unknown schemes {sorted(unknown)}")

    def cell(scheme: str, rate: float, horizon_ps: int) -> FaultCell:
        return FaultCell(
            scheme=scheme,
            rate_per_us=rate,
            horizon_ps=horizon_ps,
            params=params,
            size_bytes=size_bytes,
            messages_per_node=messages_per_node,
            n_static=n_static,
            k=k,
            injection_window=injection_window,
            seed=seed,
            max_wall_s=None if rate == 0.0 else max_wall_s,
        )

    exec_opts = dict(
        root_seed=seed, jobs=jobs, cache=cache, refresh=refresh, progress=progress
    )
    healthy_outcome = map_cells(
        run_fault_cell,
        [cell(name, 0.0, 0) for name in names],
        label="faults-healthy",
        **exec_opts,
    )
    healthy = dict(zip(names, healthy_outcome.payloads))
    horizon_ps = 2 * max(p.makespan_ps for p in healthy.values())

    campaign_rates = [rate for rate in rates if rate != 0.0]
    campaign_outcome = map_cells(
        run_fault_cell,
        [cell(name, rate, horizon_ps) for rate in campaign_rates for name in names],
        label="faults",
        **exec_opts,
    )

    result = FaultsResult(
        rates=tuple(rates),
        healthy_exec_stats=healthy_outcome.stats,
        exec_stats=campaign_outcome.stats,
    )
    for name in names:
        result.delivered[name] = []
        result.bandwidth[name] = []
        result.recovery_p99_ns[name] = []
    campaign_points = iter(campaign_outcome.payloads)
    for rate in result.rates:
        for name in names:
            point = healthy[name] if rate == 0.0 else next(campaign_points)
            result.points.append(point)
            result.delivered[name].append(point.report.delivered_fraction)
            result.bandwidth[name].append(point.report.effective_bw_bytes_per_ns)
            result.recovery_p99_ns[name].append(point.report.recovery_p99_ns)
    return result
