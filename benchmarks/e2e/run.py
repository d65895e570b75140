"""End-to-end benchmark of the switching simulator: four workloads, one record.

Every workload runs in its own fresh process (``worker.py``), one after
another, with no process pool and no result cache.  Run from the repo root:

    python benchmarks/e2e/run.py [--workloads a,b] [--seed N] [--seconds S]
        [--runs N] [--out DIR] [--compare OLD.json] [--smoke] [--write-golden]

runs each workload untraced (``--runs`` times, run i at seed + i), then
once traced, prints every metric as ``workload metric value unit`` and
writes ``DIR/results.json``.  With ``--trace 0`` or ``--trace 1`` and one
workload it runs only that measurement and ends its output with one JSON
line: ``{"correct", "attempted", "failed", "metrics"}``.

Metric names, units and regression bounds live in ``BENCHMARK.json`` at the
repo root; the definitions are in ``benchmarks/e2e/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
GOLDEN = HERE / "golden.json"

#: repro.experiments.common.DEFAULT_SEED; golden digests exist for it only
DEFAULT_SEED = 20050404

#: fresh interpreter launches behind setup_s (the median is reported)
SETUP_LAUNCHES = 3

#: passes of the traced run and of its untraced reference
TRACE_PASSES = 2

#: a run must end within 180 s; children get what is left of this
RUN_BUDGET_S = 170.0

#: the environment must not switch modes behind the benchmark's back
_DROPPED_ENV = ("REPRO_FAST", "REPRO_STRICT", "REPRO_JOBS")


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def nearest_rank(values: list, pct: int) -> float:
    """Nearest-rank percentile ``pct`` (an integer percent) of ``values``."""
    if not values:
        return 0
    ordered = sorted(values)
    return ordered[max(1, -(-len(ordered) * pct // 100)) - 1]


def rel_iqr(values: list[float]) -> float:
    """Distance between the first and third quartile, over the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


# -- child processes ------------------------------------------------------------------


class Children:
    """Starts worker processes within one deadline, serially."""

    def __init__(self, deadline: float | None) -> None:
        self.deadline = deadline
        env = {k: v for k, v in os.environ.items() if k not in _DROPPED_ENV}
        env.update(
            PYTHONPATH=str(SRC),
            OMP_NUM_THREADS="1",
            OPENBLAS_NUM_THREADS="1",
            MKL_NUM_THREADS="1",
        )
        self.env = env

    def run(self, *args: str) -> dict | None:
        timeout = RUN_BUDGET_S
        if self.deadline is not None:
            timeout = self.deadline - time.monotonic()
            if timeout <= 0:
                raise BenchError("out of time before starting a worker")
        try:
            proc = subprocess.run(
                [sys.executable, str(WORKER), *args],
                cwd=ROOT,
                env=self.env,
                capture_output=True,
                text=True,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"worker {' '.join(args)} timed out after {timeout:.0f} s") from exc
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise BenchError(f"worker {' '.join(args)} exited with {proc.returncode}")
        lines = proc.stdout.strip().splitlines()
        return json.loads(lines[-1]) if lines else None


# -- correctness ---------------------------------------------------------------------


def tally(passes: list[dict], golden: dict[str, str] | None) -> tuple[int, int]:
    """(attempted, failed) cells over ``passes``, which must all agree.

    A cell fails on an exception, a conservation problem, a digest that
    differs from the cell's first digest in ``passes`` (across passes, and
    traced against untraced), a fast-mode digest that differs from its
    event-mode twin in the same pass, or a digest that differs from
    ``golden``.
    """
    first: dict[str, str] = {}
    for p in passes:
        for c in p["cells"]:
            if c.get("digest"):
                first.setdefault(c["id"], c["digest"])
    attempted = failed = 0
    for p in passes:
        in_pass = {c["id"]: c.get("digest") for c in p["cells"]}
        for c in p["cells"]:
            digest = c.get("digest")
            attempted += 1
            failed += bool(
                c["problems"]
                or digest != first.get(c["id"])
                or (c["twin"] is not None and digest != in_pass.get(c["twin"]))
                or (golden is not None and digest != golden.get(c["id"]))
            )
    return attempted, failed


def golden_for(
    workload: str, seed: int, smoke: bool, writing: bool = False
) -> tuple[dict | None, str]:
    """The golden digests to check against, and what the output says."""
    if smoke:
        return None, "skipped: smoke mode"
    if writing:
        return None, "skipped: writing golden digests"
    if seed != DEFAULT_SEED:
        return None, f"skipped: seed {seed} is not the default seed {DEFAULT_SEED}"
    cells = json.loads(GOLDEN.read_text(encoding="utf-8"))["cells"]
    if workload not in cells:
        raise BenchError(f"{GOLDEN} has no digests for {workload}")
    return cells[workload], "checked"


# -- metrics --------------------------------------------------------------------------


def _metric(value: float, samples: int, spread: float) -> dict:
    return {"value": value, "samples": samples, "spread": spread}


def end_to_end(passes: list[dict], setup_s: list[float], peak_rss_mb: float) -> dict:
    """The end-to-end metrics of one untraced run (host time unless noted)."""
    pass_walls = [p["wall_s"] for p in passes]
    sweep_s = statistics.median(pass_walls)
    by_cell: dict[str, list[float]] = defaultdict(list)
    pooled: list[float] = []
    gm_per_pass, p90_per_pass, events, arrivals = [], [], [], []
    for p in passes:
        walls = [c["wall_s"] for c in p["cells"] if c["wall_s"] is not None]
        for c in p["cells"]:
            if c["wall_s"] is not None:
                by_cell[c["id"]].append(c["wall_s"])
        pooled.extend(walls)
        gm_per_pass.append(statistics.geometric_mean(walls))
        p90_per_pass.append(nearest_rank(walls, 90))
        events.append(sum(c.get("events", 0) for c in p["cells"]))
        arrivals.append(sum(c.get("arrivals", 0) for c in p["cells"]))
    gm_p50 = statistics.geometric_mean(statistics.median(v) for v in by_cell.values())
    return {
        "sweep_s": _metric(sweep_s, len(passes), rel_iqr(pass_walls)),
        "cell_ms.gm_p50": _metric(gm_p50 * 1e3, len(by_cell), rel_iqr(gm_per_pass)),
        "cell_ms.p90": _metric(nearest_rank(pooled, 90) * 1e3, len(pooled), rel_iqr(p90_per_pass)),
        "events_per_s": _metric(
            statistics.median(events) / sweep_s,
            len(passes),
            rel_iqr([e / w for e, w in zip(events, pass_walls)]),
        ),
        "arrivals_per_s": _metric(
            statistics.median(arrivals) / sweep_s,
            len(passes),
            rel_iqr([a / w for a, w in zip(arrivals, pass_walls)]),
        ),
        "setup_s": _metric(statistics.median(setup_s), len(setup_s), rel_iqr(setup_s)),
        "peak_rss_mb": _metric(peak_rss_mb, 1, 0.0),
    }


def per_layer(traced: dict, untraced: dict) -> dict[str, dict]:
    """Per-pass span totals of the traced run, plus the layer ratios."""
    out: dict[str, float] = {}
    for name, row in traced["layers"].items():
        out[f"{name}.calls"] = row["calls"]
        out[f"{name}.self_s"] = row["self_s"]
    n = len(traced["passes"])
    t: dict[str, int] = defaultdict(int)
    for p in traced["passes"]:
        for c in p["cells"]:
            for key, value in c.get("tally", {}).items():
                t[key] += value
    li = traced["layer_inputs"]
    tries = traced["layers"]["networks.multiswitch._try_place"]["calls"]
    out["sched.establish_per_pass"] = t["establishes"] / t["passes"] if t["passes"] else 0.0
    out["networks.tdm.slot_use"] = (
        t["slot_transfers"] / t["slot_opportunities"] if t["slot_opportunities"] else 0.0
    )
    out["nic.queue_wait_ps.p50"] = li["queue_wait_p50_ps"]
    out["nic.queue_wait_ps.p99"] = li["queue_wait_p99_ps"]
    out["sim.fastpath.quiet_tick_share"] = (
        li["quiet_ticks"] / li["fast_events"] if li["fast_events"] else 0.0
    )
    out["sim.fastpath.window_denials"] = li["window_denials"] / n
    out["networks.multiswitch.place_per_try"] = t["coordinated"] / n / tries if tries else 0.0
    out["networks.multiswitch.naks"] = t["naks"] / n
    out["service.shed_ratio"] = t["shed"] / t["requests"] if t["requests"] else 0.0
    out["bench.trace_overhead"] = statistics.median(
        p["wall_s"] for p in traced["passes"]
    ) / statistics.median(p["wall_s"] for p in untraced["passes"])
    return {name: {"value": value} for name, value in out.items()}


def cell_context(passes: list[dict]) -> list[dict]:
    """Per cell: median host ms, and the simulated results (not gated)."""
    rows: dict[str, dict] = {}
    for p in passes:
        for c in p["cells"]:
            row = rows.setdefault(
                c["id"],
                {
                    "id": c["id"],
                    "walls": [],
                    "events": c.get("events"),
                    "makespan_ps": c.get("makespan_ps"),
                    "efficiency": c.get("efficiency"),
                },
            )
            if c["wall_s"] is not None:
                row["walls"].append(c["wall_s"])
    for row in rows.values():
        walls = row.pop("walls")
        row["median_ms"] = statistics.median(walls) * 1e3 if walls else None
    return list(rows.values())


# -- the two measurements ---------------------------------------------------------------


def measure(children: Children, workload: str, seed: int, seconds: float, smoke: bool,
            golden: dict | None) -> dict:
    """One untraced run: set-up probes, then the timed passes."""
    common = ["--workload", workload, "--seed", str(seed)] + (["--smoke"] if smoke else [])
    setup_s = []
    for _ in range(SETUP_LAUNCHES):
        start = time.perf_counter()
        children.run(*common, "--probe")
        setup_s.append(time.perf_counter() - start)
    child = children.run(*common, "--seconds", str(seconds), *(["--passes", "1"] if smoke else []))
    attempted, failed = tally(child["passes"], golden)
    return {
        "seed": seed,
        "metrics": end_to_end(child["passes"], setup_s, child["peak_rss_mb"]),
        "attempted": attempted,
        "failed": failed,
        "cells": cell_context(child["passes"]),
        "digests": {c["id"]: c.get("digest") for c in child["passes"][0]["cells"]},
        "versions": {"python": child["python"], "numpy": child["numpy"]},
    }


def measure_traced(children: Children, workload: str, seed: int, smoke: bool,
                   golden: dict | None, out_dir: Path) -> dict:
    """Untraced reference passes, then the same passes with spans recorded."""
    common = ["--workload", workload, "--seed", str(seed), "--passes", str(TRACE_PASSES)]
    common += ["--smoke"] if smoke else []
    untraced = children.run(*common)
    traced = children.run(*common, "--trace-to", str(out_dir / f"trace_{workload}.json"))
    attempted, failed = tally(untraced["passes"] + traced["passes"], golden)
    record = {
        "seed": seed,
        "passes": TRACE_PASSES,
        "metrics": per_layer(traced, untraced),
        "layers": traced["layers"],
        "attempted": attempted,
        "failed": failed,
    }
    (out_dir / f"layers_{workload}.json").write_text(
        json.dumps({"workload": workload, **record}, indent=1), encoding="utf-8"
    )
    return record


# -- comparing against an earlier record ----------------------------------------------


def compare(report: dict, old: dict, bench: dict) -> bool:
    """Print a verdict per workload and metric; True if nothing got worse."""
    specs = {m["name"]: m for m in bench["end_to_end"]}
    ok = True
    for workload in report["workloads"]:
        new_runs = [r["workloads"][workload] for r in report["runs"] if workload in r["workloads"]]
        old_runs = [r["workloads"][workload] for r in old["runs"] if workload in r["workloads"]]
        if not new_runs or not old_runs:
            print(f"compare {workload} unresolved: no untraced runs on one side")
            continue
        old_ratio = max(r["failed"] / r["attempted"] for r in old_runs)
        new_ratio = max(r["failed"] / r["attempted"] for r in new_runs)
        verdict = "worse" if new_ratio > old_ratio else "same"
        ok &= verdict != "worse"
        print(f"compare {workload} failed_ratio {verdict} old={old_ratio:g} new={new_ratio:g}")
        for name, spec in specs.items():
            new = statistics.median(r["metrics"][name]["value"] for r in new_runs)
            was = statistics.median(r["metrics"][name]["value"] for r in old_runs)
            spread = report.get("spread", {}).get(workload, {}).get(
                name, new_runs[0]["metrics"][name]["spread"]
            )
            change = (new - was) / was
            gain = -change if spec["better"] == "lower" else change
            if spread > spec["bound"]:
                verdict = "unresolved"
            elif gain < -spec["bound"]:
                verdict = "worse"
            elif gain > spec["bound"]:
                verdict = "better"
            else:
                verdict = "same"
            ok &= verdict != "worse"
            print(
                f"compare {workload} {name} {verdict} old={was:.6g} new={new:.6g} "
                f"change={change:+.1%} bound={spec['bound']:.0%} spread={spread:.1%}"
            )
    return ok


# -- the command -----------------------------------------------------------------------


def machine(versions: dict) -> dict:
    cpu = platform.processor()
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"nproc": os.cpu_count(), "cpu": cpu, "platform": platform.platform(), **versions}


def print_metrics(workload: str, metrics: dict, units: dict) -> None:
    for name, unit in units.items():
        print(f"{workload} {name} {metrics[name]['value']!r} {unit}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        description="End-to-end benchmark of the switching simulator",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=__doc__,
    )
    ap.add_argument("--workloads", "--workload", default=None,
                    help="comma-separated workload names (default: all)")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measured seconds per untraced run (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=None,
                    help="run only the untraced (0) or the traced (1) measurement")
    ap.add_argument("--runs", type=int, default=1, help="untraced runs per workload")
    ap.add_argument("--out", type=Path, default=HERE / "out")
    ap.add_argument("--compare", type=Path, default=None, metavar="OLD.json")
    ap.add_argument("--smoke", action="store_true",
                    help="16 ports, 1 pass: checks the harness, never used for numbers")
    ap.add_argument("--write-golden", action="store_true",
                    help="record this run's digests as the golden digests")
    args = ap.parse_args(argv)

    start = time.monotonic()
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}/repro", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    known = [w["name"] for w in bench["workloads"]]
    chosen = args.workloads.split(",") if args.workloads else known
    unknown = sorted(set(chosen) - set(known))
    if unknown:
        ap.error(f"unknown workloads {unknown}; known: {known}")
    if args.trace is not None and len(chosen) != 1:
        ap.error("--trace measures exactly one workload")
    if args.write_golden and (args.seed != DEFAULT_SEED or args.smoke or args.trace is not None):
        ap.error("--write-golden needs the default seed, full size and no --trace")
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    e2e_units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    children = Children(start + RUN_BUDGET_S if args.trace is not None else None)
    args.out.mkdir(parents=True, exist_ok=True)

    report: dict = {
        "seed": args.seed,
        "seconds": seconds,
        "smoke": args.smoke,
        "workloads": chosen,
        "runs": [{"seed": args.seed + i, "workloads": {}} for i in range(args.runs)],
        "layers": {},
    }
    attempted = failed = 0
    versions: dict = {}
    digests: dict[str, dict] = {}
    try:
        for workload in chosen:
            if args.trace != 1:
                for i, run in enumerate(report["runs"]):
                    seed = args.seed + i
                    golden, status = golden_for(workload, seed, args.smoke, args.write_golden)
                    rec = measure(children, workload, seed, seconds, args.smoke, golden)
                    rec["golden"] = status
                    run["workloads"][workload] = rec
                    versions = rec.pop("versions")
                    digests.setdefault(workload, rec.pop("digests"))
                    attempted += rec["attempted"]
                    failed += rec["failed"]
                    print(f"{workload} golden {status}")
                    print_metrics(workload, rec["metrics"], e2e_units)
                    ratio = rec["failed"] / rec["attempted"]
                    print(f"{workload} failed_ratio {ratio!r} fraction")
            if args.trace != 0:
                golden, status = golden_for(workload, args.seed, args.smoke, args.write_golden)
                rec = measure_traced(children, workload, args.seed, args.smoke, golden, args.out)
                rec["golden"] = status
                report["layers"][workload] = rec
                attempted += rec["attempted"]
                failed += rec["failed"]
                print_metrics(workload, rec["metrics"], layer_units)
                ratio = rec["failed"] / rec["attempted"]
                print(f"{workload} traced_failed_ratio {ratio!r} fraction")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.trace is not None:
        workload = chosen[0]
        if args.trace == 0:
            metrics, units = report["runs"][0]["workloads"][workload]["metrics"], e2e_units
        else:
            metrics, units = report["layers"][workload]["metrics"], layer_units
        print(json.dumps({
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": metrics[name]["value"], "unit": unit}
                for name, unit in units.items()
            },
        }))
        return 0 if failed == 0 else 1

    if args.runs >= 2:
        report["spread"] = {
            w: {
                name: rel_iqr([r["workloads"][w]["metrics"][name]["value"] for r in report["runs"]])
                for name in e2e_units
            }
            for w in chosen
        }
    report["machine"] = machine(versions)
    if args.write_golden:
        record = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
        record.setdefault("cells", {})
        record["seed"] = DEFAULT_SEED
        record["cells"].update(digests)
        GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote golden digests for {', '.join(chosen)} to {GOLDEN}")
    out_file = args.out / "results.json"
    out_file.write_text(json.dumps(report, indent=1), encoding="utf-8")
    print(f"wrote {out_file} ({time.monotonic() - start:.0f} s)")
    ok = failed == 0
    if args.compare is not None:
        old = json.loads(args.compare.read_text(encoding="utf-8"))
        ok &= compare(report, old, bench)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
