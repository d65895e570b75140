"""Metrics: efficiency, latency digests, and report formatting."""

from .degradation import DegradationReport, degradation_report
from .efficiency import efficiency, efficiency_from_bound, run_lower_bound_ps
from .serialization import load_result, result_from_dict, result_to_dict, save_result
from .latencies import LatencySummary, summarize_latencies
from .report import format_csv, format_series, format_table

__all__ = [
    "DegradationReport",
    "degradation_report",
    "efficiency",
    "efficiency_from_bound",
    "run_lower_bound_ps",
    "load_result",
    "result_from_dict",
    "result_to_dict",
    "save_result",
    "LatencySummary",
    "summarize_latencies",
    "format_csv",
    "format_series",
    "format_table",
]
