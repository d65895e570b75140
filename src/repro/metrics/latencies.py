"""Message latency statistics over run results."""

from __future__ import annotations

from dataclasses import dataclass

from ..networks.base import RunResult
from ..sim.stats import OnlineStats, percentile_ps

__all__ = ["LatencySummary", "summarize_latencies"]


@dataclass(slots=True, frozen=True)
class LatencySummary:
    """Per-run latency digest, all values in nanoseconds."""

    count: int
    mean_ns: float
    p50_ns: float
    p99_ns: float
    max_ns: float
    mean_service_ns: float

    def __str__(self) -> str:
        return (
            f"n={self.count} mean={self.mean_ns:.1f}ns p50={self.p50_ns:.1f}ns "
            f"p99={self.p99_ns:.1f}ns max={self.max_ns:.1f}ns"
        )


def summarize_latencies(result: RunResult) -> LatencySummary:
    """Digest the delivery records of one run.

    p50 and p99 are exact nearest-rank percentiles over integer
    picoseconds (:func:`~repro.sim.stats.percentile_ps`).
    """
    if not result.records:
        return LatencySummary(0, 0.0, 0.0, 0.0, 0.0, 0.0)
    ordered = sorted(r.latency_ps for r in result.records)
    service = OnlineStats()
    for r in result.records:
        service.add(float(r.service_ps))
    return LatencySummary(
        count=len(ordered),
        mean_ns=result.latency_stats().mean / 1000.0,
        p50_ns=percentile_ps(ordered, 50) / 1000.0,
        p99_ns=percentile_ps(ordered, 99) / 1000.0,
        max_ns=ordered[-1] / 1000.0,
        mean_service_ns=service.mean / 1000.0,
    )
