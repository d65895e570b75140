"""Microbenchmarks of the hot simulation kernels.

Not paper artifacts — these guard the performance of the pieces the
cycle-level simulations iterate millions of times: the Table-1 vectorised
pre-scheduler, the sparse SL-array pass, the edge-colouring compiler, the
event kernel, and a full small end-to-end run.
"""

from __future__ import annotations

import numpy as np

from repro.compiled.coloring import decompose
from repro.experiments.common import measure
from repro.networks.registry import RunSpec, build_network
from repro.params import PAPER_PARAMS
from repro.sched.presched import compute_l
from repro.sim.engine import Simulator
from repro.traffic.mesh import OrderedMeshPattern
from repro.traffic.scatter import ScatterPattern


def test_presched_vectorised_128(benchmark):
    n = 128
    rng = np.random.default_rng(1)
    r = rng.random((n, n)) < 0.2
    b_s = np.zeros((n, n), dtype=bool)
    b_star = np.zeros((n, n), dtype=bool)
    res = benchmark(compute_l, r, b_s, b_star)
    assert res.l.any()


def test_edge_color_all_to_all_64(benchmark):
    n = 64
    conns = [(u, v) for u in range(n) for v in range(n) if u != v]
    configs = benchmark.pedantic(decompose, args=(conns, n), rounds=3, iterations=1)
    assert len(configs) == n - 1


def test_event_kernel_throughput(benchmark):
    def run_10k_events():
        sim = Simulator()
        state = {"n": 0}

        def tick():
            state["n"] += 1
            if state["n"] < 10_000:
                sim.schedule(100, tick)

        sim.schedule(0, tick)
        sim.run()
        return state["n"]

    assert benchmark(run_10k_events) == 10_000


def test_end_to_end_small_tdm_run(benchmark):
    params = PAPER_PARAMS.with_overrides(n_ports=16)

    def run():
        return measure(
            OrderedMeshPattern(16, 128, rounds=2),
            build_network(
                RunSpec("dynamic-tdm", params, k=4, injection_window=4)
            ),
        )

    point = benchmark.pedantic(run, rounds=3, iterations=1)
    assert point.efficiency > 0


def test_fastpath_small_tdm_run(benchmark):
    """The slot-synchronous kernel on a streaming workload.

    Long per-destination streams give the quiescent-window machinery room
    to work; the point must match the strict tick-by-tick run bit-for-bit
    (the identity itself is CI-enforced and covered by
    tests/sim/test_fastpath.py — the assert here just pins that windows
    actually opened, so this bench keeps measuring the windowed path
    rather than a silent fallback).
    """
    params = PAPER_PARAMS.with_overrides(n_ports=16)

    def run():
        net = build_network(
            RunSpec("dynamic-tdm", params, k=4, injection_window=4, strict=False)
        )
        point = measure(ScatterPattern(16, 2048), net)
        assert net._fastpath is not None
        assert net._fastpath.stats()["windows_opened"] > 0
        return point

    point = benchmark.pedantic(run, rounds=3, iterations=1)
    assert point.efficiency > 0
