"""Experiment drivers regenerating every table and figure of the paper."""

from .common import DEFAULT_SEED, ExperimentPoint, measure
from .compare import (
    COMPARE_SCHEMES,
    COMPARE_SIZES,
    CompareResult,
    CoverageRow,
    coverage_rows,
    run_compare,
)
from .faults import FAULT_RATES, FaultPoint, FaultsResult, run_faults
from .figure4 import MESSAGE_SIZES, Figure4Result, figure4_patterns, run_figure4
from .figure5 import DETERMINISM_SWEEP, Figure5Result, run_figure5
from .loadlatency import LOADS, LoadLatencyResult, run_load_latency
from .reporting import run_all
from .table3 import format_table3, run_table3

__all__ = [
    "DEFAULT_SEED",
    "ExperimentPoint",
    "measure",
    "COMPARE_SCHEMES",
    "COMPARE_SIZES",
    "CompareResult",
    "CoverageRow",
    "coverage_rows",
    "run_compare",
    "FAULT_RATES",
    "FaultPoint",
    "FaultsResult",
    "run_faults",
    "MESSAGE_SIZES",
    "Figure4Result",
    "figure4_patterns",
    "run_figure4",
    "DETERMINISM_SWEEP",
    "LOADS",
    "LoadLatencyResult",
    "run_load_latency",
    "run_all",
    "Figure5Result",
    "run_figure5",
    "format_table3",
    "run_table3",
]
