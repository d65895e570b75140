"""Shared helpers for the benchmark harness.

Every bench regenerates one paper artifact (table, figure panel, or
ablation) at the paper's full 128-port scale, prints the series it
produced, and archives it under ``benchmarks/results/`` so the data
survives pytest's output capture.  :func:`archive` is the only writer
there.

Set ``REPRO_BENCH_PORTS`` (e.g. ``=32``) to run the whole harness at a
reduced system size for quick iteration.  Such a smoke run prints its
results but leaves the committed records alone, whatever the value:
some benches (scale-out, Table 3) pick their own sizes, so the variable
itself marks the run.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.params import PAPER_PARAMS, SystemParams

RESULTS_DIR = Path(__file__).parent / "results"


def bench_params() -> SystemParams:
    ports = int(os.environ.get("REPRO_BENCH_PORTS", "128"))
    return PAPER_PARAMS.with_overrides(n_ports=ports)


def archive(name: str, text: str, suffix: str = ".txt") -> None:
    """Print a result block; persist it under benchmarks/results/ unless
    ``REPRO_BENCH_PORTS`` marks a smoke run."""
    print(f"\n{text}")
    if "REPRO_BENCH_PORTS" in os.environ:
        return
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}{suffix}").write_text(text)


@pytest.fixture
def params() -> SystemParams:
    return bench_params()
