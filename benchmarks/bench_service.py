"""Service-level SLO benchmark: request-to-grant latency vs offered load.

Runs the online switching service against three seeded open-loop offered
loads around the admission bucket's configured rate — comfortably under,
at saturation, and well over — and reports the SLOs the daemon would be
operated against: p50/p99 request-to-grant latency, shed rate, and
availability.  The table is archived as Markdown under
``benchmarks/results/service_slo.md``.

Everything is virtual time, so the numbers are bit-identical for the
fixed seed; only the benchmark's wall-clock row varies between machines.
"""

from __future__ import annotations

import time

from conftest import archive, bench_params

from repro.params import SystemParams
from repro.service import (
    ServiceConfig,
    SwitchService,
    WorkloadSpec,
    check_invariants,
    predicted_pairs,
)
from repro.sim.clock import us

SEED = 7
HORIZON_PS = us(600)
#: the admission bucket's sustained rate (requests per virtual second)
ADMIT_RATE_PER_S = 2_000_000.0
#: offered-load multipliers: under, at, and over the admission rate
LOAD_POINTS = (0.5, 1.0, 2.0)


def _run_point(params: SystemParams, load: float) -> dict:
    spec = WorkloadSpec(
        kind="hotspot",
        n_ports=params.n_ports,
        rate_per_s=ADMIT_RATE_PER_S * load,
        mean_hold_ps=us(6),
        duration_ps=HORIZON_PS,
        hotspot_fraction=0.35,
        n_hot=max(1, params.n_ports // 8),
    )
    arrivals = spec.generate(SEED)
    cfg = ServiceConfig(
        k=4,
        bucket_rate_per_s=ADMIT_RATE_PER_S,
        bucket_burst=48,
        queue_depth=12,
        window_ps=us(20),
        availability_floor=0.0,
    )
    service = SwitchService(
        cfg,
        params,
        predicted=predicted_pairs(arrivals, count=params.n_ports),
    )
    t0 = time.monotonic()
    service.run_campaign(arrivals, max_wall_s=120.0)
    wall_s = time.monotonic() - t0
    violations = check_invariants(service)
    assert violations == [], violations
    p50, p99 = service.slo.latency_percentiles()
    return {
        "load": load,
        "offered_per_s": spec.rate_per_s,
        "arrivals": service.slo.arrivals,
        "granted": service.slo.granted,
        "p50_ns": p50 / 1000.0,
        "p99_ns": p99 / 1000.0,
        "shed_rate": service.slo.shed_rate,
        "availability": service.slo.availability,
        "final_level": service.ladder.level.name,
        "wall_s": wall_s,
    }


def _markdown(params: SystemParams, rows: list[dict]) -> str:
    lines = [
        "# Service SLOs vs offered load",
        "",
        f"Online switching service, {params.n_ports} ports, hybrid scheme (k=4), "
        f"seed {SEED}, {HORIZON_PS / 1000:.0f} ns virtual horizon, hotspot workload.",
        f"Admission bucket: {ADMIT_RATE_PER_S / 1e6:.1f}M req/s sustained, burst 48, "
        "queue depth 12 per port.",
        "",
        "| offered load | arrivals | granted | p50 grant | p99 grant "
        "| shed rate | availability | final level |",
        "|---|---|---|---|---|---|---|---|",
    ]
    for r in rows:
        lines.append(
            f"| {r['load']:.1f}x ({r['offered_per_s'] / 1e6:.1f}M/s) "
            f"| {r['arrivals']} | {r['granted']} "
            f"| {r['p50_ns']:.1f} ns | {r['p99_ns']:.1f} ns "
            f"| {r['shed_rate']:.3f} | {r['availability']:.3f} "
            f"| {r['final_level']} |"
        )
    lines += [
        "",
        "All campaigns drain completely and pass every service invariant "
        "(conservation, no deadlock, queue bounds, register integrity).",
        "Latencies and rates are virtual-time quantities and bit-identical "
        "across machines for this seed; wall-clock per campaign: "
        + ", ".join(f"{r['wall_s'] * 1000:.0f} ms" for r in rows)
        + ".",
        "",
    ]
    return "\n".join(lines)


def test_service_slo_vs_offered_load(benchmark):
    """Three offered loads through the full admission/lease pipeline."""
    params = bench_params()
    rows = [_run_point(params, load) for load in LOAD_POINTS]

    # under load the service grants nearly everything cheaply; over load it
    # sheds rather than queueing without bound
    assert rows[0]["availability"] > rows[-1]["availability"] - 1e-9
    assert rows[-1]["shed_rate"] > 0.0
    assert all(r["p50_ns"] > 0 for r in rows)

    archive("service_slo", _markdown(params, rows), suffix=".md")

    # the benchmark number: the saturation-point campaign
    benchmark.pedantic(_run_point, args=(params, 1.0), rounds=3, iterations=1)
