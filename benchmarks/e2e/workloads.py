"""The four workloads of the end-to-end benchmark, and what one cell does.

A *cell* is exactly one call chain into the package's public API, and
only that chain is timed:

* :class:`RunCell` — figure-4 style: ``figure4_patterns(...)[pattern](size)``
  → ``.phases(RngStreams(seed))`` → ``run_lower_bound_ps`` →
  ``build_network(RunSpec(...)).run(phases)``;
* :class:`ScaleCell` — ``run_scaleout_cell(ScaleoutCell(...))``;
* :class:`SoakCell` — ``run_soak(SoakConfig(...))``.

``inspect`` runs after the timer stops.  It hashes the simulated result
into a sha256 digest and checks conservation.  It also returns additive
counts (``tally``) that feed the per-layer ratios.  ``build_network`` and
``run_lower_bound_ps`` are looked up through their modules at call time,
so the trace wrappers of ``trace.py`` see these calls too.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import time
from dataclasses import dataclass
from typing import Any

from repro.experiments.figure4 import figure4_patterns
from repro.experiments.scaleout import ScaleoutCell, run_scaleout_cell, scaleout_phases
from repro.networks import registry
from repro.params import PAPER_PARAMS
from repro.service import soak
from repro.sim.rng import RngStreams

# ``repro.metrics`` re-exports a function named ``efficiency``, which hides
# the submodule from attribute access
efficiency = importlib.import_module("repro.metrics.efficiency")

#: per-excursion wall-clock watchdog; a cell that trips it counts as failed
MAX_WALL_S = 120.0

#: the bound check in inspect() uses this binding, which the trace
#: wrappers (installed later, on the module attribute) leave alone
_lower_bound_ps = efficiency.run_lower_bound_ps

def _sha256(payload: object) -> str:
    return hashlib.sha256(repr(payload).encode()).hexdigest()


@dataclass(frozen=True, slots=True)
class RunCell:
    """One traffic pattern through one scheme on one fabric of ``ports``."""

    pattern: str
    size: int
    scheme: str
    ports: int
    fast: bool = False
    nn_rounds: int = 16

    @property
    def id(self) -> str:
        mode = "/fast" if self.fast else ""
        return f"{self.pattern}-{self.size}@{self.ports}/{self.scheme}{mode}"

    @property
    def twin_id(self) -> str | None:
        """The event-mode cell whose digest a fast cell must equal."""
        return dataclasses.replace(self, fast=False).id if self.fast else None

    def execute(self, seed: int) -> tuple[float, Any]:
        params = PAPER_PARAMS.with_overrides(n_ports=self.ports)
        start = time.perf_counter()
        pattern = figure4_patterns(params, mesh_rounds=4, nn_rounds=self.nn_rounds)[
            self.pattern
        ](self.size)
        phases = pattern.phases(RngStreams(seed))
        bound = efficiency.run_lower_bound_ps(phases, params)
        network = registry.build_network(
            registry.RunSpec(
                scheme=self.scheme,
                params=params,
                fast=self.fast,
                strict=False,
                max_wall_s=MAX_WALL_S,
            )
        )
        result = network.run(phases)
        return time.perf_counter() - start, (phases, bound, network, result)

    def inspect(self, outcome: Any, seed: int) -> dict:
        phases, bound, network, result = outcome
        problems = []
        injected = [m for phase in phases for m in phase.messages]
        if sum(r.size for r in result.records) != sum(m.size for m in injected):
            problems.append("delivered bytes != injected bytes")
        if sorted(r.seq for r in result.records) != sorted(m.seq for m in injected):
            problems.append("a message was not delivered exactly once")
        if result.makespan_ps < bound:
            problems.append(f"makespan {result.makespan_ps} ps < bound {bound} ps")
        c = result.counters
        digest = _sha256(
            (
                result.makespan_ps,
                result.total_bytes,
                sorted(c.items()),
                [
                    (r.src, r.dst, r.size, r.inject_ps, r.start_ps, r.done_ps, r.seq)
                    for r in result.records
                ],
                [dataclasses.astuple(d) for d in result.drops],
            )
        )
        return {
            "digest": digest,
            "problems": problems,
            "events": c["events"],
            "arrivals": len(injected),
            "makespan_ps": result.makespan_ps,
            "efficiency": bound / result.makespan_ps,
            "tally": {
                "establishes": c.get("establishes", c.get("sl_establishes", 0)),
                "passes": c.get("passes", c.get("sl_passes", 0)),
                "slot_transfers": c.get("slot_transfers", 0),
                "slot_opportunities": c.get("slot_opportunities", 0),
                "coordinated": c.get("circuits_coordinated", 0),
                "naks": c.get("circuit_naks", 0),
            },
        }


@dataclass(frozen=True, slots=True)
class ScaleCell:
    """One faulted scale-out cell: 4 messages of 256 B per endpoint."""

    scheme: str
    endpoints: int

    @property
    def id(self) -> str:
        return f"scaleout-{self.endpoints}/{self.scheme}/faulted"

    twin_id = None
    fast = False

    def _cell(self, seed: int) -> ScaleoutCell:
        return ScaleoutCell(
            scheme=self.scheme,
            n_endpoints=self.endpoints,
            messages_per_endpoint=4,
            size_bytes=256,
            params=PAPER_PARAMS,
            k=4,
            faulted=True,
            seed=seed,
        )

    def execute(self, seed: int) -> tuple[float, Any]:
        cell = self._cell(seed)
        start = time.perf_counter()
        point = run_scaleout_cell(cell)
        return time.perf_counter() - start, point

    def inspect(self, point: Any, seed: int) -> dict:
        cell = self._cell(seed)
        sent = cell.n_endpoints * cell.messages_per_endpoint
        problems = []
        if point.delivered + point.dropped != sent:
            problems.append(f"delivered + dropped != {sent} sent")
        if point.dropped == 0:
            # the bottleneck bound covers every message, so it only binds
            # when every message was delivered
            params = PAPER_PARAMS.with_overrides(n_ports=cell.n_endpoints)
            bound = _lower_bound_ps(scaleout_phases(cell), params)
            if point.makespan_ps < bound:
                problems.append(f"makespan {point.makespan_ps} ps < bound {bound} ps")
        return {
            "digest": _sha256(dataclasses.astuple(point)),
            "problems": problems,
            "events": point.events,
            "arrivals": sent,
            "makespan_ps": point.makespan_ps,
            "efficiency": None,
            "tally": {
                "slot_transfers": point.slot_transfers,
                "slot_opportunities": point.slot_opportunities,
                "coordinated": point.coordinated,
                "naks": point.naks,
            },
        }


@dataclass(frozen=True, slots=True)
class SoakCell:
    """One seeded chaos campaign (seed + ``offset``) with the defaults."""

    offset: int
    seconds: float

    @property
    def id(self) -> str:
        return f"soak-{self.seconds:g}s/seed+{self.offset}"

    twin_id = None

    def execute(self, seed: int) -> tuple[float, Any]:
        cfg = soak.SoakConfig(
            seed=seed + self.offset, seconds=self.seconds, max_wall_s=MAX_WALL_S
        )
        # run_soak returns only its report; keep the service it builds so
        # inspect() can read the simulated event count
        services: list = []
        build_service = soak.build_service

        def keep_service(*args: Any, **kwargs: Any) -> tuple:
            built = build_service(*args, **kwargs)
            services.append(built[0])
            return built

        soak.build_service = keep_service
        try:
            start = time.perf_counter()
            report = soak.run_soak(cfg)
            wall = time.perf_counter() - start
        finally:
            soak.build_service = build_service
        return wall, (report, services[0])

    def inspect(self, outcome: Any, seed: int) -> dict:
        report, service = outcome
        return {
            "digest": _sha256(report.to_json()),
            "problems": [f"soak invariant: {v}" for v in report.violations],
            "events": service.fabric.sim.events_executed,
            "arrivals": report.arrivals,
            "makespan_ps": None,
            "efficiency": None,
            "tally": {"shed": report.shed, "requests": report.arrivals},
        }


Cell = RunCell | ScaleCell | SoakCell

MSG_SCHEMES = ("wormhole", "circuit", "dynamic-tdm", "preload", "islip", "solstice-tdm")
STREAM_SCHEMES = ("dynamic-tdm", "preload")
MULTI_SWITCH_SCHEMES = ("mesh-tdm", "fattree-tdm")


def cells(workload: str, smoke: bool = False) -> list[Cell]:
    """The cells of one pass, in pass order.

    ``smoke`` keeps the structure but shrinks every fabric (16 ports,
    32 endpoints for multi-switch) and every campaign; it checks the
    harness, never the numbers.
    """
    xbar = 16 if smoke else 128
    multi = 32 if smoke else 64
    if workload == "xbar-msg":
        return [
            RunCell(pattern, size, scheme, xbar)
            for pattern, size in (("two-phase", 256), ("random-mesh", 256), ("random-mesh", 64))
            for scheme in MSG_SCHEMES
        ]
    if workload == "xbar-stream":
        return [
            RunCell(pattern, size, scheme, xbar, fast=fast)
            for pattern, size in (("scatter", 2048), ("ordered-mesh", 1024))
            for scheme in STREAM_SCHEMES
            for fast in (False, True)
        ]
    if workload == "mesh-a2a":
        out: list[Cell] = []
        for scheme in MULTI_SWITCH_SCHEMES:
            out.append(RunCell("two-phase", 64, scheme, multi))
            out.append(RunCell("random-mesh", 256, scheme, multi))
            out.append(ScaleCell(scheme, 32 if smoke else 256))
        # the single-crossbar reference for the multi-switch / crossbar ratio
        out.append(RunCell("two-phase", 64, "dynamic-tdm", multi))
        return out
    if workload == "soak":
        return [SoakCell(i, 0.25 if smoke else 2.0) for i in range(10)]
    raise KeyError(f"unknown workload {workload!r}")


def warmup_cells(workload: str, smoke: bool = False) -> list[Cell]:
    """One small cell per distinct (scheme, mode) of the workload."""
    if workload == "soak":
        return [SoakCell(0, 0.5)]
    small: dict[tuple[str, bool], Cell] = {}
    for cell in cells(workload, smoke):
        ports = 64 if cell.scheme in MULTI_SWITCH_SCHEMES else 16
        small.setdefault(
            (cell.scheme, cell.fast), RunCell("random-mesh", 64, cell.scheme, ports, cell.fast)
        )
    return list(small.values())
