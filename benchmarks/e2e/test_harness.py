"""Checks of the end-to-end benchmark harness itself.

Run explicitly (the tier-1 suite only collects ``tests/``):

    PYTHONPATH=src python -m pytest -q benchmarks/e2e/test_harness.py

Everything here uses smoke mode (16-port fabrics, one pass), which checks
the harness and is never used for numbers.
"""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def _load_trace():
    # by path: the module shares its name with the standard library's trace
    spec = importlib.util.spec_from_file_location("e2e_trace", HERE / "trace.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


trace = _load_trace()
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
SEED = bench.DEFAULT_SEED


def _run(*args: str) -> subprocess.CompletedProcess[str]:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )


@pytest.fixture(scope="module")
def smoke_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e")
    proc = _run("--smoke", "--out", str(out))
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    return proc.stdout, out


def _printed(stdout: str) -> dict[tuple[str, str], str]:
    """(workload, metric) -> unit, from the ``workload metric value unit`` lines."""
    out = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) == 4 and parts[0] in WORKLOADS:
            float(parts[2])
            out[(parts[0], parts[1])] = parts[3]
    return out


def test_every_benchmark_metric_is_printed_with_its_unit(smoke_run):
    printed = _printed(smoke_run[0])
    for workload in WORKLOADS:
        for metric in BENCH["end_to_end"] + BENCH["per_layer"]:
            assert printed.get((workload, metric["name"])) == metric["unit"], (
                workload,
                metric["name"],
            )
        assert printed[(workload, "failed_ratio")] == "fraction"


def test_layer_tables_list_every_span(smoke_run):
    out = smoke_run[1]
    layer_names = {m["name"] for m in BENCH["per_layer"]}
    for workload in WORKLOADS:
        table = json.loads((out / f"layers_{workload}.json").read_text())
        assert set(table["layers"]) == set(trace.SPAN_NAMES)
        assert set(table["metrics"]) == layer_names
        assert (out / f"trace_{workload}.json").exists()


@pytest.mark.parametrize("mode,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_single_run_ends_with_one_json_line(tmp_path, mode, section):
    proc = _run("--smoke", "--workload", "soak", "--trace", mode, "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCH[section]
    }


def test_missing_package_source_fails_without_a_result(tmp_path):
    bench_copy = tmp_path / "benchmarks" / "e2e"
    bench_copy.mkdir(parents=True)
    for path in HERE.glob("*.py"):
        (bench_copy / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, str(bench_copy / "run.py"), "--workload", "soak", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_default_seed_matches_the_package():
    from repro.experiments.common import DEFAULT_SEED

    assert bench.DEFAULT_SEED == DEFAULT_SEED


def _one_pass(workload: str, recorder=None) -> list[dict]:
    passes, _ = worker.run_passes(
        workloads.cells(workload, smoke=True), SEED, 0.0, 1, recorder
    )
    return passes


def test_a_corrupted_golden_digest_counts_as_failed():
    passes = _one_pass("xbar-stream")
    golden = {c["id"]: c["digest"] for c in passes[0]["cells"]}
    attempted, failed = bench.tally(passes, golden)
    assert (attempted, failed) == (8, 0)
    victim = next(iter(golden))
    golden[victim] = "0" * 64
    assert bench.tally(passes, golden)[1] > 0


def test_a_dropped_record_counts_as_failed():
    cell = workloads.RunCell("random-mesh", 64, "dynamic-tdm", 16)
    _, outcome = cell.execute(SEED)
    outcome[3].records.pop()
    record = {"id": cell.id, "twin": None, "wall_s": 0.0, **cell.inspect(outcome, SEED)}
    assert record["problems"]
    assert bench.tally([{"wall_s": 0.0, "cells": [record]}], None) == (1, 1)


def test_a_fast_cell_must_match_its_event_twin():
    passes = _one_pass("xbar-stream")
    cells = passes[0]["cells"]
    fast = next(c for c in cells if c["twin"] is not None)
    fast["digest"] = "0" * 64
    assert bench.tally(passes, None)[1] > 0


def _sites() -> dict[tuple[str, str], object]:
    out = {}
    for _, module, path in trace.SPANS:
        owner, attr = trace._lookup_site(module, path)
        out[(module, path)] = vars(owner)[attr]
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_wrappers_are_restored_and_traced_digests_match(workload):
    before = _sites()
    untraced = _one_pass(workload)
    with trace.SpanRecorder() as recorder:
        assert all(_sites()[key] is not fn for key, fn in before.items())
        traced = _one_pass(workload, recorder)
    after = _sites()
    assert all(after[key] is fn for key, fn in before.items())
    assert bench.tally(untraced + traced, None) == (2 * len(untraced[0]["cells"]), 0)
    assert recorder.totals["sim.engine.run"][0] > 0
    for calls, self_ns, total_ns in recorder.totals.values():
        assert 0 <= self_ns <= total_ns
