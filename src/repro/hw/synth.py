"""The Table-3 scheduler latency model and area estimates.

We do not have the paper's VHDL or an Altera toolchain, so Table 3 is
reproduced structurally: the scheduler's combinational latency is

    t(N) = fixed + ceil(log2 N) * t_or + (2N - 1) * t_cell

and the three technology constants are calibrated by non-negative least
squares against the paper's six published FPGA points.  The calibrated
Stratix library reproduces Table 3 to within ~2 ns at every size (see
EXPERIMENTS.md), and the ASIC numbers follow the paper's own conservative
rule: *"ASIC results tend to be 5 to 10 times better than the FPGA
results ... we conservatively chose the ASIC performance to be 80 ns for a
128x128 scheduler (about 5x better)."*
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError
from .gates import GateLibrary, or_tree_depth, sl_critical_cells

__all__ = [
    "PAPER_TABLE3_NS",
    "PAPER_SIZES",
    "ASIC_SPEEDUP",
    "calibrate_library",
    "stratix_library",
    "asic_library",
    "scheduler_latency_table",
    "SchedulerAreaModel",
]

#: Table 3 of the paper: FPGA scheduling-circuit latency in ns per size
PAPER_TABLE3_NS: dict[int, float] = {4: 34, 8: 49, 16: 76, 32: 120, 64: 213, 128: 385}
PAPER_SIZES: tuple[int, ...] = tuple(sorted(PAPER_TABLE3_NS))
#: the paper's conservative FPGA -> ASIC factor
ASIC_SPEEDUP = 5.0


def calibrate_library(
    points_ns: dict[int, float], name: str = "calibrated"
) -> GateLibrary:
    """Fit the structural model's three constants to measured latencies.

    Uses non-negative least squares (physical delays cannot be negative)
    on the design matrix ``[1, ceil(log2 N), 2N - 1]``.
    """
    if len(points_ns) < 3:
        raise ConfigurationError("need at least 3 points to calibrate 3 constants")
    sizes = sorted(points_ns)
    a = np.array(
        [[1.0, or_tree_depth(n), sl_critical_cells(n)] for n in sizes], dtype=float
    )
    y = np.array([points_ns[n] * 1000.0 for n in sizes], dtype=float)  # -> ps
    try:
        from scipy.optimize import nnls

        coef, _ = nnls(a, y)
    except ImportError:  # pragma: no cover - scipy is an optional extra
        coef, *_ = np.linalg.lstsq(a, y, rcond=None)
        coef = np.clip(coef, 0.0, None)
    return GateLibrary(
        name=name,
        fixed_ps=float(coef[0]),
        or_level_ps=float(coef[1]),
        sl_cell_ps=float(coef[2]),
    )


def stratix_library() -> GateLibrary:
    """The FPGA library calibrated against the paper's Table 3."""
    return calibrate_library(PAPER_TABLE3_NS, name="stratix-ep1s25")


def asic_library() -> GateLibrary:
    """The ASIC library: the paper's conservative 5x FPGA speed-up."""
    return stratix_library().scaled(ASIC_SPEEDUP, name="asic-5x")


def scheduler_latency_table(
    sizes: tuple[int, ...] = PAPER_SIZES,
) -> list[dict[str, float]]:
    """Regenerate Table 3 (plus the derived ASIC column).

    Returns one row per size with keys ``n``, ``fpga_ns``, ``paper_ns``,
    ``error_ns``, ``asic_ns``.
    """
    fpga = stratix_library()
    asic = asic_library()
    rows = []
    for n in sizes:
        fpga_ns = fpga.scheduler_latency_ps(n) / 1000.0
        paper_ns = PAPER_TABLE3_NS.get(n, float("nan"))
        rows.append(
            {
                "n": n,
                "fpga_ns": fpga_ns,
                "paper_ns": paper_ns,
                "error_ns": fpga_ns - paper_ns if n in PAPER_TABLE3_NS else float("nan"),
                "asic_ns": asic.scheduler_latency_ps(n) / 1000.0,
            }
        )
    return rows


@dataclass(slots=True, frozen=True)
class SchedulerAreaModel:
    """First-order resource model of the scheduler.

    Counts scale as the structure dictates: one SL module per matrix cell,
    ``K`` configuration bits per cell, one request latch per cell, N-input
    OR trees per port vector.  ``le_per_*`` express the logic-element cost
    of each primitive (defaults approximate a 4-LUT FPGA fabric).
    """

    le_per_sl_cell: float = 4.0
    le_per_config_bit: float = 1.0
    le_per_latch: float = 1.0
    le_per_or2: float = 1.0

    def logic_elements(self, n: int, k: int) -> float:
        """Estimated logic elements for an N x N scheduler with K slots."""
        if n < 1 or k < 1:
            raise ConfigurationError("need positive N and K")
        sl = n * n * self.le_per_sl_cell
        config = k * n * n * self.le_per_config_bit
        latches = n * n * self.le_per_latch
        # 2N OR trees of N inputs each: N-1 two-input ORs per tree
        or_trees = 2 * n * (n - 1) * self.le_per_or2
        return sl + config + latches + or_trees

    def utilization(self, n: int, k: int) -> float:
        """Fraction of the paper's EP1S25 device (25,660 LEs) consumed."""
        return self.logic_elements(n, k) / 25_660
