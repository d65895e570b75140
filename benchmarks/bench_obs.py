"""Benchmarks of the observability layer itself.

Two things must stay true for the instrumentation to be shippable:

* a **disabled** tracer adds (almost) nothing to a run — the hot paths
  guard on ``tracer.enabled`` before building payloads;
* an **enabled** tracer plus the exporters stay cheap enough to trace a
  full Figure-4 panel interactively.

The bench measures both, reports the event kernel's own throughput
counters, and archives everything under ``benchmarks/results/obs.txt``.
"""

from __future__ import annotations

import time

from conftest import archive, bench_params

from repro.experiments.common import DEFAULT_SEED
from repro.experiments.figure4 import figure4_patterns
from repro.networks.registry import RunSpec, build_network
from repro.obs import TracedRun, derive_spans, format_perf, to_chrome_trace
from repro.sim.rng import RngStreams
from repro.sim.trace import Tracer


def _run_once(params, tracer=None):
    net = build_network(RunSpec("dynamic-tdm", params, tracer=tracer))
    pattern = figure4_patterns(params)["random-mesh"](512)
    phases = pattern.phases(RngStreams(DEFAULT_SEED))
    result = net.run(phases, pattern.name)
    return net, result


def test_tracing_overhead(benchmark, tmp_path):
    """Traced vs untraced dynamic-TDM run, plus exporter timings."""
    params = bench_params()

    # warm once, then time untraced and traced runs back to back
    _run_once(params)
    t0 = time.monotonic()
    net, _ = _run_once(params)
    untraced_s = time.monotonic() - t0
    perf = net.sim.perf_counters()

    tracer = Tracer(capacity=1 << 20)
    t0 = time.monotonic()
    _, result = _run_once(params, tracer)
    traced_s = time.monotonic() - t0

    events = list(tracer.events())
    t0 = time.monotonic()
    spans = derive_spans(events)
    span_s = time.monotonic() - t0
    run = TracedRun("dynamic-tdm", events, dict(result.counters))
    t0 = time.monotonic()
    to_chrome_trace([run], tmp_path / "bench_obs.json")
    export_s = time.monotonic() - t0

    overhead = traced_s / untraced_s - 1.0 if untraced_s > 0 else 0.0
    lines = [
        "=== observability overhead (dynamic-tdm, random-mesh, 512 B) ===",
        f"untraced run        {untraced_s * 1000:9.1f} ms",
        f"traced run          {traced_s * 1000:9.1f} ms  ({overhead:+.1%})",
        f"events recorded     {len(events):9d}  ({tracer.dropped} overwritten)",
        f"span derivation     {span_s * 1000:9.1f} ms  ({len(spans)} spans)",
        f"chrome export       {export_s * 1000:9.1f} ms",
        "--- event-kernel perf counters (untraced run) ---",
        format_perf(perf),
    ]
    archive("obs", "\n".join(lines))

    # the benchmark number itself: the traced run
    benchmark.pedantic(_run_once, args=(params, Tracer(1 << 20)), rounds=3, iterations=1)
    assert len(events) > 0
    assert any(s.name == "message" and not s.open for s in spans)


def test_null_tracer_fast_path(benchmark):
    """Recording against NULL_TRACER must stay a no-op attribute check."""
    from repro.sim.trace import NULL_TRACER

    def record_100k():
        record = NULL_TRACER.record
        for i in range(100_000):
            if NULL_TRACER.enabled:
                record(i, "xfer", src=0, dst=1, bytes=80)
        return NULL_TRACER.enabled

    assert benchmark(record_100k) is False
