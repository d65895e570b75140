"""Experiment S1: the scale-out sweep (multi-switch TDM fabrics).

The paper's single 128-port crossbar tops out at one switch; its Section-6
scale-out claim is that predictive multiplexed switching composes across a
switch graph.  This sweep pushes the two composite schemes (``mesh-tdm``,
``fattree-tdm``) to 256-1024 endpoints and records the quantities that
claim rides on:

* **scheduler latency** — mean/max end-to-end circuit establishment time,
  which the analytic :class:`~repro.networks.multihop.MultiHopModel` says
  grows by one SL pass per hop;
* **slot utilization** — what fraction of visited (circuit, slot) transfer
  opportunities moved bytes (the TDM frame's efficiency at scale);
* **fault recovery vs diameter** — the seeded per-hop trunk-fault
  campaign's recovery latencies, reported next to the topology diameter.

Every number in a row is derived from simulator state (picosecond clocks,
event counts) — no wall time — so the sweep is bit-identical across
invocations and across ``--jobs`` counts, and cacheable by cell content.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ConfigurationError
from ..exec import ExecStats, map_cells
from ..faults.injector import FaultInjector
from ..faults.schedule import FaultSchedule
from ..networks.base import RunResult
from ..networks.registry import RunSpec, build_network, get_scheme
from ..params import PAPER_PARAMS, SystemParams
from ..sim.rng import RngStreams
from ..traffic.base import TrafficPhase
from ..types import Message
from .common import DEFAULT_SEED

__all__ = [
    "SCALEOUT_SCHEMES",
    "SCALEOUT_ENDPOINTS",
    "ScaleoutCell",
    "ScaleoutPoint",
    "scaleout_phases",
    "run_scaleout_cell",
    "ScaleoutResult",
    "run_scaleout",
]

#: the composite multi-switch schemes this sweep exists for
SCALEOUT_SCHEMES: tuple[str, ...] = ("mesh-tdm", "fattree-tdm")

#: the endpoint counts of the scale-out claim (16 .. 64 endpoints/switch)
SCALEOUT_ENDPOINTS: tuple[int, ...] = (256, 512, 1024)

#: per-hop fault campaign size for faulted cells (mostly transient downs
#: plus one permanent kill, spread over the injection window)
_N_TRUNK_FAULTS = 6


@dataclass(slots=True, frozen=True)
class ScaleoutCell:
    """One independent scale-out run: (scheme, endpoints, faulted).

    A plain value (:mod:`repro.exec.canonical`): the workload, topology
    and fault plan are all re-derived from these fields, so the execution
    engine can address the cell's payload by content.  ``seed`` is the
    sweep's root seed — both schemes face the byte-identical workload
    realisation for a given endpoint count (the comparison rule of
    :mod:`repro.experiments.common`).
    """

    scheme: str
    n_endpoints: int
    messages_per_endpoint: int
    size_bytes: int
    params: SystemParams
    k: int
    faulted: bool
    seed: int


@dataclass(slots=True, frozen=True)
class ScaleoutPoint:
    """Deterministic outcome of one scale-out cell."""

    scheme: str
    n_endpoints: int
    faulted: bool
    switches: int
    trunk_links: int
    diameter: int
    delivered: int
    dropped: int
    makespan_ps: int
    est_mean_ps: int
    est_max_ps: int
    naks: int
    coordinated: int
    slot_transfers: int
    slot_opportunities: int
    recoveries: int
    recovery_mean_ps: int
    recovery_max_ps: int
    events: int
    #: always 0: multi-switch runs are ineligible for the slot-synchronous
    #: shortcuts and always run tick by tick.  Kept so the field order (and
    #: any hash of ``astuple(point)``) stays stable; in no CSV column.
    fastpath_fallbacks: int = 0

    @property
    def slot_utilization(self) -> float:
        """Fraction of visited transfer opportunities that moved bytes."""
        if self.slot_opportunities == 0:
            return 0.0
        return self.slot_transfers / self.slot_opportunities


def scaleout_phases(cell: ScaleoutCell) -> list[TrafficPhase]:
    """The cell's workload: a seed-derived spread of point-to-point sends.

    Injection times advance by a random 0-20 ns gap per message so request
    edges arrive staggered (a phase-start burst would only measure the
    coordinator).  The stream key deliberately omits the scheme: mesh and
    fat tree face identical traffic.
    """
    gen = RngStreams(cell.seed).get(f"scaleout-{cell.n_endpoints}")
    n = cell.n_endpoints
    msgs: list[Message] = []
    t = 0
    for _ in range(n * cell.messages_per_endpoint):
        u = int(gen.integers(0, n))
        v = int(gen.integers(0, n - 1))
        if v >= u:
            v += 1  # uniform over destinations != source, no rejection loop
        t += int(gen.integers(0, 20_000))
        msgs.append(Message(src=u, dst=v, size=cell.size_bytes, inject_ps=t))
    return [TrafficPhase("scaleout", msgs)]


def _trunk_fault_plan(
    cell: ScaleoutCell, n_links: int, horizon_ps: int
) -> tuple[tuple[int, int, str, int], ...]:
    """A seeded per-hop campaign: transient downs plus one permanent kill.

    Fault times are spread over the first 60 % of the injection window so
    recovery (retry -> remap -> degrade) happens while traffic still
    flows; the stream key omits the scheme so both fabrics face faults at
    the same instants (the links differ — the graphs do).
    """
    gen = RngStreams(cell.seed).get(f"scaleout-faults-{cell.n_endpoints}")
    plan: list[tuple[int, int, str, int]] = []
    for i in range(_N_TRUNK_FAULTS):
        time_ps = int(gen.integers(horizon_ps // 10, (horizon_ps * 6) // 10))
        link = int(gen.integers(0, n_links))
        if i == _N_TRUNK_FAULTS - 1:
            plan.append((time_ps, link, "dead", 0))
        else:
            duration = int(gen.integers(200_000, 800_000))
            plan.append((time_ps, link, "down", duration))
    return tuple(plan)


def run_scaleout_cell(cell: ScaleoutCell) -> ScaleoutPoint:
    """Simulate one scale-out cell (the engine's runner function)."""
    if not get_scheme(cell.scheme).capabilities.multi_switch:
        raise ConfigurationError(
            f"scaleout only sweeps multi-switch schemes, got {cell.scheme!r}"
        )
    params = cell.params.with_overrides(n_ports=cell.n_endpoints)
    phases = scaleout_phases(cell)
    options: dict[str, object] = {}
    faults: FaultInjector | None = None
    if cell.faulted:
        # the plan needs the topology's link count: build a probe instance
        # (construction is cheap; per-run state is made inside run())
        probe = build_network(RunSpec(scheme=cell.scheme, params=params, k=cell.k))
        horizon_ps = max(phase.messages[-1].inject_ps for phase in phases)
        options["trunk_faults"] = _trunk_fault_plan(
            cell, probe.topology.n_links, horizon_ps
        )
        faults = FaultInjector(FaultSchedule(events=()))
    network = build_network(
        RunSpec(
            scheme=cell.scheme,
            params=params,
            k=cell.k,
            faults=faults,
            options=options,
        )
    )
    result: RunResult = network.run(phases, pattern_name="scaleout")
    c = result.counters
    est_count = max(1, c.get("est_latency_count", 0))
    recoveries = list(result.recovery_ps)
    return ScaleoutPoint(
        scheme=cell.scheme,
        n_endpoints=cell.n_endpoints,
        faulted=cell.faulted,
        switches=c["topo_switches"],
        trunk_links=c["topo_trunk_links"],
        diameter=c["topo_diameter"],
        delivered=len(result.records),
        dropped=len(result.drops),
        makespan_ps=result.makespan_ps,
        est_mean_ps=c.get("est_latency_sum_ps", 0) // est_count,
        est_max_ps=c.get("est_latency_max_ps", 0),
        naks=c.get("circuit_naks", 0),
        coordinated=c.get("circuits_coordinated", 0),
        slot_transfers=c.get("slot_transfers", 0),
        slot_opportunities=c.get("slot_opportunities", 0),
        recoveries=len(recoveries),
        recovery_mean_ps=sum(recoveries) // max(1, len(recoveries)),
        recovery_max_ps=max(recoveries, default=0),
        events=c["events"],
    )


_CSV_HEADER = (
    "scheme,endpoints,faulted,switches,trunk_links,diameter,delivered,"
    "dropped,makespan_ps,est_mean_ps,est_max_ps,naks,coordinated,"
    "slot_utilization,recoveries,recovery_mean_ps,recovery_max_ps,events"
)


@dataclass
class ScaleoutResult:
    """All points of one sweep, in cell (grid) order."""

    points: list[ScaleoutPoint] = field(default_factory=list)
    exec_stats: ExecStats | None = None

    def csv(self) -> str:
        rows = [_CSV_HEADER]
        for p in self.points:
            rows.append(
                f"{p.scheme},{p.n_endpoints},{int(p.faulted)},{p.switches},"
                f"{p.trunk_links},{p.diameter},{p.delivered},{p.dropped},"
                f"{p.makespan_ps},{p.est_mean_ps},{p.est_max_ps},{p.naks},"
                f"{p.coordinated},{p.slot_utilization:.6f},{p.recoveries},"
                f"{p.recovery_mean_ps},{p.recovery_max_ps},{p.events}"
            )
        return "\n".join(rows) + "\n"

    def format(self) -> str:
        out = [
            "Scale-out sweep — multi-hop TDM circuit fabrics",
            f"{'scheme':>12} {'n':>5} {'flt':>3} {'diam':>4} "
            f"{'est_mean_ns':>11} {'est_max_ns':>10} {'slot_util':>9} "
            f"{'recov_mean_ns':>13} {'dropped':>7}",
        ]
        for p in self.points:
            out.append(
                f"{p.scheme:>12} {p.n_endpoints:>5} {int(p.faulted):>3} "
                f"{p.diameter:>4} {p.est_mean_ps // 1000:>11} "
                f"{p.est_max_ps // 1000:>10} {p.slot_utilization:>9.3f} "
                f"{p.recovery_mean_ps // 1000:>13} {p.dropped:>7}"
            )
        return "\n".join(out)


def run_scaleout(
    params: SystemParams = PAPER_PARAMS,
    schemes: tuple[str, ...] = SCALEOUT_SCHEMES,
    endpoints: tuple[int, ...] = SCALEOUT_ENDPOINTS,
    messages_per_endpoint: int = 4,
    size_bytes: int = 256,
    k: int = 4,
    seed: int = DEFAULT_SEED,
    *,
    faults: bool = True,
    jobs: int | None = None,
    cache: object | None = None,
    refresh: bool = False,
    progress: bool = False,
) -> ScaleoutResult:
    """Run the scale-out grid: schemes x endpoint counts x {healthy, faulted}.

    ``params.n_ports`` is overridden per cell by the endpoint count; the
    rest of the plant (slot time, wire delays, SL pass) is the paper's.
    Cells fan out over ``jobs`` workers; output is bit-identical for any
    job count.
    """
    cells = [
        ScaleoutCell(
            scheme=scheme,
            n_endpoints=n,
            messages_per_endpoint=messages_per_endpoint,
            size_bytes=size_bytes,
            params=params,
            k=k,
            faulted=faulted,
            seed=seed,
        )
        for scheme in schemes
        for n in endpoints
        for faulted in ((False, True) if faults else (False,))
    ]
    outcome = map_cells(
        run_scaleout_cell,
        cells,
        root_seed=seed,
        jobs=jobs,
        cache=cache,
        refresh=refresh,
        label="scaleout",
        progress=progress,
    )
    return ScaleoutResult(points=list(outcome.payloads), exec_stats=outcome.stats)
