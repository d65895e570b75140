"""Benchmarks of the parallel experiment engine itself.

Not paper artifacts — these guard the engine's overheads: the canonical
cell encoding that runs once per cell, the
content-addressed cache round-trip, and the end-to-end win of a warm
cache over recomputation.  The pool paths are covered functionally in
``tests/exec``; wall-clock pool speedup is hardware-dependent and is
reported in ``benchmarks/results/parallel_exec_perf.md`` instead.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exec import ResultCache, canonical_json, map_cells
from repro.experiments.figure4 import run_figure4


@dataclass(slots=True, frozen=True)
class _Cell:
    pattern: str
    scheme: str
    size_bytes: int
    seed: int


_CELLS = [
    _Cell("scatter", scheme, size, 20050404)
    for scheme in ("wormhole", "circuit", "dynamic-tdm", "preload")
    for size in (8, 64, 512, 4096)
]


def _square(cell: _Cell) -> int:
    return cell.size_bytes * cell.size_bytes


def test_canonical_encode(benchmark):
    def encode_all():
        return [canonical_json(cell) for cell in _CELLS]

    encodings = benchmark(encode_all)
    assert len(set(encodings)) == len(_CELLS)


def test_cache_round_trip(benchmark, tmp_path):
    store = ResultCache(tmp_path)
    map_cells(_square, _CELLS, jobs=1, cache=store)

    def warm():
        return map_cells(_square, _CELLS, jobs=1, cache=store)

    outcome = benchmark(warm)
    assert outcome.stats.cells_cached == len(_CELLS)


def test_engine_overhead_vs_bare_loop(benchmark):
    # the engine's per-cell cost (encoding, stats) on trivial
    # cells — the upper bound on overhead for real sweeps, whose cells
    # are 4-6 orders of magnitude slower
    def through_engine():
        return map_cells(_square, _CELLS, jobs=1).payloads

    payloads = benchmark(through_engine)
    assert payloads == [_square(c) for c in _CELLS]


def test_figure4_warm_cache_end_to_end(benchmark, tmp_path, params):
    kwargs = dict(params=params, sizes=(64, 512), patterns=("scatter",))
    run_figure4(jobs=1, cache=tmp_path, **kwargs)  # populate

    def warm():
        return run_figure4(jobs=1, cache=tmp_path, **kwargs)

    result = benchmark.pedantic(warm, rounds=3, iterations=1)
    assert result.exec_stats.cells_cached == result.exec_stats.cells_total
