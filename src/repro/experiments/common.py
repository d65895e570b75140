"""Shared experiment plumbing.

An experiment point runs one (pattern, scheme) pair and reports the
bandwidth efficiency of Figures 4/5.  Two rules keep comparisons honest:

* the workload realisation is regenerated from the same master seed for
  every scheme, so all schemes see byte-identical traffic;
* efficiency always uses the scheme-independent bottleneck lower bound
  (:mod:`repro.metrics.efficiency`).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..metrics.efficiency import efficiency_from_bound, run_lower_bound_ps
from ..networks.base import BaseNetwork, RunResult
from ..sim.rng import RngStreams
from ..traffic.base import TrafficPattern

__all__ = [
    "ExperimentPoint",
    "guarded_efficiency",
    "measure",
    "FIGURE4_SCHEMES",
    "DEFAULT_SEED",
]

DEFAULT_SEED = 20050404  # IPPS 2005 in Denver started April 4


@dataclass(slots=True, frozen=True)
class ExperimentPoint:
    """Outcome of one (pattern, scheme) simulation."""

    scheme: str
    pattern: str
    size_bytes: int
    efficiency: float
    makespan_ps: int
    lower_bound_ps: int
    total_bytes: int
    counters: dict[str, int]


def guarded_efficiency(bound_ps: int, makespan_ps: int) -> float:
    """:func:`efficiency_from_bound`, but 0.0 for empty or degenerate cells.

    An empty traffic realisation yields bound 0 and makespan 0, which the
    strict validator rejects with :class:`ConfigurationError`.  A sweep
    report wants a (zero) row for such a cell, not a crash — the same
    convention :func:`repro.metrics.latencies.summarize_latencies` uses
    for empty runs.
    """
    if bound_ps <= 0 or makespan_ps <= 0:
        return 0.0
    return efficiency_from_bound(bound_ps, makespan_ps)


def measure(
    pattern: TrafficPattern,
    network: BaseNetwork,
    seed: int = DEFAULT_SEED,
) -> ExperimentPoint:
    """Run ``pattern`` through ``network`` and compute its efficiency."""
    phases = pattern.phases(RngStreams(seed))
    bound = run_lower_bound_ps(phases, network.params)
    result: RunResult = network.run(phases, pattern_name=pattern.name)
    return ExperimentPoint(
        scheme=network.scheme,
        pattern=pattern.name,
        size_bytes=pattern.size_bytes,
        efficiency=guarded_efficiency(bound, result.makespan_ps),
        makespan_ps=result.makespan_ps,
        lower_bound_ps=bound,
        total_bytes=result.total_bytes,
        counters=result.counters,
    )


#: the scheme set Figure 4 compares (canonical registry names, in the
#: paper's presentation order)
FIGURE4_SCHEMES: tuple[str, ...] = ("wormhole", "circuit", "dynamic-tdm", "preload")
