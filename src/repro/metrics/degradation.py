"""Degradation metrics for fault-injection campaigns.

A fault campaign grades a scheme on how gracefully it sheds load, not on
raw speed: what fraction of the offered messages still arrived, how long
each disruption stalled traffic before the recovery machinery restored
progress, and what the surviving bandwidth was.  :func:`degradation_report`
digests one faulted :class:`~repro.networks.base.RunResult` into those
numbers and re-checks the campaign's two safety invariants — every
injected message is delivered exactly once or explicitly dropped
(``duplicated`` must always be zero), and the byte ledger balances.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from ..networks.base import RunResult
from ..sim.stats import percentile_ps

__all__ = ["DegradationReport", "degradation_report"]


@dataclass(slots=True, frozen=True)
class DegradationReport:
    """Digest of one run under fault injection."""

    scheme: str
    #: faults the injector actually applied (0 for a healthy run)
    faults_applied: int
    delivered: int
    dropped: int
    #: delivered / (delivered + dropped); 1.0 when nothing was offered
    delivered_fraction: float
    #: message records sharing a sequence number — must be zero
    duplicated: int
    #: delivered payload over the makespan, in bytes per nanosecond
    effective_bw_bytes_per_ns: float
    #: disruption-to-first-progress latencies, nanoseconds
    recoveries: int
    recovery_mean_ns: float
    recovery_p50_ns: float
    recovery_p99_ns: float
    recovery_max_ns: float

    def __str__(self) -> str:
        return (
            f"{self.scheme}: delivered {self.delivered_fraction:.3f} "
            f"({self.delivered}/{self.delivered + self.dropped}), "
            f"bw {self.effective_bw_bytes_per_ns:.3f} B/ns, "
            f"{self.recoveries} recoveries "
            f"(mean {self.recovery_mean_ns:.0f} ns, "
            f"p99 {self.recovery_p99_ns:.0f} ns)"
        )


def degradation_report(result: RunResult) -> DegradationReport:
    """Digest a (possibly faulted) run into its degradation metrics.

    Works on healthy runs too: no drops, no recoveries, and the effective
    bandwidth equals the plain throughput.  Recovery p50 and p99 are exact
    nearest-rank percentiles over integer picoseconds.
    """
    seqs = Counter(r.seq for r in result.records)
    seqs.update(d.seq for d in result.drops)
    duplicated = sum(n - 1 for n in seqs.values() if n > 1)

    rec = sorted(result.recovery_ps)

    makespan = result.makespan_ps
    bw = result.delivered_bytes * 1000.0 / makespan if makespan else 0.0
    faults_applied = sum(
        n
        for key, n in result.counters.items()
        if key.startswith("fault_applied_")
    )
    return DegradationReport(
        scheme=result.scheme,
        faults_applied=faults_applied,
        delivered=len(result.records),
        dropped=len(result.drops),
        delivered_fraction=result.delivered_fraction,
        duplicated=duplicated,
        effective_bw_bytes_per_ns=bw,
        recoveries=len(rec),
        recovery_mean_ns=result.recovery_stats().mean / 1000.0,
        recovery_p50_ns=percentile_ps(rec, 50) / 1000.0 if rec else 0.0,
        recovery_p99_ns=percentile_ps(rec, 99) / 1000.0 if rec else 0.0,
        recovery_max_ns=rec[-1] / 1000.0 if rec else 0.0,
    )
