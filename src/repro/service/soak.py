"""Chaos soak campaigns: seeded storms of faults and overload bursts.

``repro soak`` builds one fully-seeded campaign — an adversarial hot-spot
workload with overload bursts riding on it, plus a fault storm from
:meth:`repro.faults.schedule.FaultSchedule.generate` — replays it through
a :class:`~repro.service.core.SwitchService` to a complete drain, and
asserts the service invariants (:mod:`repro.service.invariants`) at exit.

Everything is virtual time, so the campaign is *bit-identical* for a
fixed ``(seed, seconds)``: the SLO snapshot JSONL, the report JSON, and
the Perfetto trace all come out byte-for-byte the same across runs — the
property the CI smoke job and the determinism test both lean on.  The
``seconds`` knob scales the virtual horizon (one soak second simulates
:data:`VIRTUAL_PS_PER_SOAK_SECOND` of fabric time); wall clock is only a
safety valve (``max_wall_s``), never an input.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from ..errors import ConfigurationError
from ..faults.injector import FaultInjector
from ..faults.schedule import FaultSchedule
from ..obs.exporters import to_chrome_trace
from ..sim.clock import us
from ..sim.trace import Tracer
from ..params import SystemParams
from .core import SwitchService
from .model import ServiceConfig
from .invariants import check_invariants
from .workload import WorkloadSpec, predicted_pairs

__all__ = ["SoakConfig", "SoakReport", "run_soak", "VIRTUAL_PS_PER_SOAK_SECOND"]

#: virtual fabric time simulated per soak "second" (the --seconds unit)
VIRTUAL_PS_PER_SOAK_SECOND = us(200)


@dataclass(slots=True, frozen=True)
class SoakConfig:
    """One seeded chaos campaign (every field feeds the seed, none the clock)."""

    seed: int
    #: campaign length in soak seconds (scales the virtual horizon)
    seconds: float = 10.0
    n_ports: int = 16
    k: int = 4
    scheme: str = "hybrid"
    #: base offered arrival rate (requests per virtual second)
    rate_per_s: float = 1_500_000.0
    #: mean circuit-lease hold time
    mean_hold_ps: int = us(8)
    #: fault storm intensity (faults per virtual microsecond)
    fault_rate_per_us: float = 0.02
    #: campaign availability floor asserted at exit
    availability_floor: float = 0.55
    #: where to write slo.jsonl / report.json / trace (None = nowhere)
    out_dir: str | None = None
    #: also export a Perfetto timeline (needs out_dir)
    trace: bool = False
    #: wall-clock safety valve for the drain (never affects results)
    max_wall_s: float | None = 120.0

    def __post_init__(self) -> None:
        if self.seconds <= 0:
            raise ConfigurationError(f"soak seconds must be positive, got {self.seconds}")
        if self.fault_rate_per_us < 0:
            raise ConfigurationError("fault rate must be >= 0")

    @property
    def horizon_ps(self) -> int:
        return int(self.seconds * VIRTUAL_PS_PER_SOAK_SECOND)


@dataclass(slots=True)
class SoakReport:
    """Everything one soak campaign produced (JSON-stable field order)."""

    seed: int
    horizon_ps: int
    arrivals: int
    granted: int
    shed: int
    rejected_dead: int
    broken_leases: int
    availability: float
    shed_rate: float
    p50_grant_ps: int
    p99_grant_ps: int
    resident_hits: int
    best_effort_grants: int
    snapshots: int
    final_level: str
    transitions: list[list] = field(default_factory=list)
    shed_by_outcome: dict[str, int] = field(default_factory=dict)
    fault_counters: dict[str, int] = field(default_factory=dict)
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> str:
        payload = {
            "seed": self.seed,
            "horizon_ps": self.horizon_ps,
            "arrivals": self.arrivals,
            "granted": self.granted,
            "shed": self.shed,
            "rejected_dead": self.rejected_dead,
            "broken_leases": self.broken_leases,
            "availability": round(self.availability, 6),
            "shed_rate": round(self.shed_rate, 6),
            "p50_grant_ps": self.p50_grant_ps,
            "p99_grant_ps": self.p99_grant_ps,
            "resident_hits": self.resident_hits,
            "best_effort_grants": self.best_effort_grants,
            "snapshots": self.snapshots,
            "final_level": self.final_level,
            "transitions": self.transitions,
            "shed_by_outcome": {k: self.shed_by_outcome[k] for k in sorted(self.shed_by_outcome)},
            "fault_counters": {k: self.fault_counters[k] for k in sorted(self.fault_counters)},
            "violations": self.violations,
        }
        return json.dumps(payload, indent=2, sort_keys=False) + "\n"

    def summary(self) -> str:
        lines = [
            f"soak seed={self.seed}: {self.arrivals} arrivals over "
            f"{self.horizon_ps / 1_000_000:.1f} us virtual",
            f"  granted {self.granted}  shed {self.shed}  "
            f"rejected-dead {self.rejected_dead}  broken-leases {self.broken_leases}",
            f"  availability {self.availability:.4f}  "
            f"p50 {self.p50_grant_ps / 1000:.1f} ns  p99 {self.p99_grant_ps / 1000:.1f} ns",
            f"  faults applied "
            f"{sum(v for k, v in self.fault_counters.items() if k.startswith('applied_'))}  "
            f"ladder transitions {len(self.transitions)}  final level {self.final_level}",
        ]
        if self.violations:
            lines.append(f"  INVARIANT VIOLATIONS ({len(self.violations)}):")
            lines.extend(f"    - {v}" for v in self.violations)
        else:
            lines.append("  invariants: all hold")
        return "\n".join(lines)


def build_service(cfg: SoakConfig, *, tracer: Tracer | None = None) -> tuple:
    """Construct the seeded (service, arrivals) pair for one campaign."""
    horizon = cfg.horizon_ps
    # overload bursts: a hard spike mid-campaign and a long shoulder later
    workload = WorkloadSpec(
        kind="hotspot",
        n_ports=cfg.n_ports,
        rate_per_s=cfg.rate_per_s,
        mean_hold_ps=cfg.mean_hold_ps,
        duration_ps=horizon,
        hotspot_fraction=0.35,
        n_hot=max(1, cfg.n_ports // 8),
        overload=(
            (int(horizon * 0.35), int(horizon * 0.45), 3.0),
            (int(horizon * 0.70), int(horizon * 0.80), 2.0),
        ),
    )
    arrivals = workload.generate(cfg.seed)
    service_cfg = ServiceConfig(
        scheme=cfg.scheme,
        k=cfg.k,
        bucket_rate_per_s=cfg.rate_per_s * 1.5,
        bucket_burst=48,
        queue_depth=12,
        window_ps=us(10),
        availability_floor=cfg.availability_floor,
        degrade_shed_rate=0.15,
        recover_shed_rate=0.02,
    )
    schedule = (
        FaultSchedule.generate(
            seed=cfg.seed,
            rate_per_us=cfg.fault_rate_per_us,
            horizon_ps=horizon,
            n_ports=cfg.n_ports,
            k=cfg.k,
        )
        if cfg.fault_rate_per_us > 0
        else FaultSchedule(())
    )
    injector = FaultInjector(schedule, retry=service_cfg.retry)
    params = SystemParams(n_ports=cfg.n_ports)
    predicted = predicted_pairs(arrivals, count=cfg.n_ports)
    service = SwitchService(
        service_cfg,
        params,
        tracer=tracer,
        faults=injector,
        predicted=predicted,
    )
    return service, arrivals


def run_soak(cfg: SoakConfig) -> SoakReport:
    """Run one seeded chaos campaign to a full drain and check invariants."""
    tracer = Tracer(capacity=1 << 18) if cfg.trace else None
    service, arrivals = build_service(cfg, tracer=tracer)
    service.run_campaign(arrivals, max_wall_s=cfg.max_wall_s)
    violations = check_invariants(service)
    slo = service.slo
    p50, p99 = slo.latency_percentiles()
    injector = service.fabric.fault_injector
    assert injector is not None
    report = SoakReport(
        seed=cfg.seed,
        horizon_ps=cfg.horizon_ps,
        arrivals=slo.arrivals,
        granted=slo.granted,
        shed=slo.shed,
        rejected_dead=slo.rejected_dead,
        broken_leases=service.broken_leases,
        availability=slo.availability,
        shed_rate=slo.shed_rate,
        p50_grant_ps=p50,
        p99_grant_ps=p99,
        resident_hits=service.resident_hits,
        best_effort_grants=service.best_effort_grants,
        snapshots=len(slo.snapshots),
        final_level=service.ladder.level.name,
        transitions=[
            [t_ps, old.name, new.name, reason]
            for t_ps, old, new, reason in service.ladder.transitions
        ],
        shed_by_outcome=dict(slo.shed_by_outcome),
        fault_counters=dict(injector.counters.as_dict()),
        violations=violations,
    )
    if cfg.out_dir is not None:
        out = Path(cfg.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        slo.write_jsonl(out / "slo.jsonl")
        (out / "report.json").write_text(report.to_json(), encoding="utf-8")
        if tracer is not None:
            to_chrome_trace(tracer, out / "soak-trace.json", label=f"soak-{cfg.seed}")
    return report
