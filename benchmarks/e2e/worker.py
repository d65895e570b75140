"""One fresh process of the end-to-end benchmark: one workload, serially.

``run.py`` starts this file once per measurement, so peak RSS and warm
state stay per workload.  It imports the package, builds the cell list
and runs the warm-up cells; with ``--probe`` it stops there (the set-up
time probe).  Otherwise it runs passes over the cells, in a closed loop
with one client: each cell starts when the previous one ends.  Without
``--passes`` it keeps starting passes until ``--seconds`` have gone by.
The last line of its standard output is one JSON object.

    python benchmarks/e2e/worker.py --workload xbar-msg --seed 20050404 --seconds 20
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import workloads
from run import nearest_rank


class _LayerInputs:
    """Simulated quantities behind the per-layer ratios (traced run only)."""

    def __init__(self) -> None:
        self.queue_waits: list[int] = []
        self.quiet_ticks = 0
        self.window_denials = 0
        self.fast_events = 0

    def add(self, cell: workloads.Cell, outcome: object) -> None:
        if not isinstance(cell, workloads.RunCell):
            return
        _, _, network, result = outcome  # type: ignore[misc]
        self.queue_waits.extend(r.start_ps - r.inject_ps for r in result.records)
        fastpath = getattr(network, "_fastpath", None)
        if fastpath is not None:
            stats = fastpath.stats()
            self.quiet_ticks += stats["quiet_slot_ticks"] + stats["quiet_sl_ticks"]
            self.window_denials += stats["window_denials"]
            self.fast_events += result.counters["events"]

    def summary(self) -> dict:
        return {
            "queue_wait_p50_ps": nearest_rank(self.queue_waits, 50),
            "queue_wait_p99_ps": nearest_rank(self.queue_waits, 99),
            "quiet_ticks": self.quiet_ticks,
            "window_denials": self.window_denials,
            "fast_events": self.fast_events,
        }


def run_passes(
    cells: list, seed: int, seconds: float, passes: int, recorder=None
) -> tuple[list[dict], _LayerInputs]:
    """Time every cell of each pass; inspect results outside the timer."""
    inputs = _LayerInputs()
    out: list[dict] = []
    begin = time.perf_counter()
    while (
        len(out) < passes
        if passes
        else not out or time.perf_counter() - begin < seconds
    ):
        records = []
        for cell in cells:
            if recorder is not None:
                recorder.begin_cell(f"{cell.id}#{len(out)}")
            record = {"id": cell.id, "twin": cell.twin_id}
            try:
                wall, outcome = cell.execute(seed)
            except Exception:  # a failed cell is counted, the pass goes on
                traceback.print_exc()
                record.update(wall_s=None, problems=["exception (see stderr)"])
                records.append(record)
                continue
            record["wall_s"] = wall
            record.update(cell.inspect(outcome, seed))
            if recorder is not None:
                inputs.add(cell, outcome)
            del outcome  # free this result before the next cell runs
            records.append(record)
        # a pass's time is its cells' timed chains, without hashing and checks
        wall = sum(r["wall_s"] for r in records if r["wall_s"] is not None)
        out.append({"wall_s": wall, "cells": records})
    return out, inputs


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0, help="start passes until this long")
    ap.add_argument("--passes", type=int, default=0, help="fixed pass count (0: timed)")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--probe", action="store_true", help="set up, then exit")
    ap.add_argument("--trace-to", type=Path, default=None, help="record spans, write trace here")
    args = ap.parse_args(argv)

    cells = workloads.cells(args.workload, args.smoke)
    for cell in workloads.warmup_cells(args.workload, args.smoke):
        cell.execute(args.seed)
    if args.probe:
        return 0

    report: dict = {
        "workload": args.workload,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    if args.trace_to is None:
        passes, _ = run_passes(cells, args.seed, args.seconds, args.passes)
    else:
        # this file's directory comes first on sys.path, ahead of the
        # standard library's module of the same name
        import trace

        with trace.SpanRecorder() as recorder:
            passes, inputs = run_passes(
                cells, args.seed, args.seconds, args.passes, recorder
            )
        recorder.write_chrome(args.trace_to)
        report["layers"] = recorder.layers(len(passes))
        report["layer_inputs"] = inputs.summary()
    report["passes"] = passes
    # Linux reports ru_maxrss in KiB
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
