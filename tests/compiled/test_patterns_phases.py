"""Unit tests for static patterns, preload programs, and phase analyses."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.compiled.directives import PreloadProgram
from repro.compiled.patterns import StaticPattern
from repro.compiled.phases import working_set_series
from repro.errors import ConfigurationError
from repro.fabric.config import ConfigMatrix


class TestStaticPattern:
    def test_from_permutation(self):
        pat = StaticPattern.from_permutation([1, 2, 0])
        assert len(pat) == 3
        assert pat.degree == 1

    def test_partial_permutation(self):
        pat = StaticPattern.from_permutation([2, -1, -1])
        assert len(pat) == 1

    def test_self_connection_rejected(self):
        with pytest.raises(ConfigurationError):
            StaticPattern(4, [(1, 1)])

    def test_compile_covers(self):
        pat = StaticPattern(4, [(0, 1), (0, 2), (1, 2)])
        configs = pat.compile()
        assert len(configs) == pat.degree == 2
        union = set()
        for cfg in configs:
            union |= set(cfg.connections())
        assert union == pat.conns

    def test_compile_batched(self):
        n = 6
        pat = StaticPattern(n, [(u, v) for u in range(n) for v in range(n) if u != v])
        batches = pat.compile_batched(2)
        assert all(len(b) <= 2 for b in batches)
        assert sum(len(b) for b in batches) == n - 1

    def test_compile_batched_bad_k(self):
        with pytest.raises(ConfigurationError):
            StaticPattern(4).compile_batched(0)


class TestPreloadProgram:
    def test_compile(self):
        pat = StaticPattern(4, [(0, 1), (0, 2), (1, 3)])
        prog = PreloadProgram.compile(pat, k_preload=1)
        assert prog.n_batches == pat.degree
        assert prog.covered == pat.conns

    def test_batch_connections(self):
        pat = StaticPattern(4, [(0, 1), (1, 0)])
        prog = PreloadProgram.compile(pat, k_preload=1)
        assert prog.batch_connections(0) <= pat.conns

    def test_oversized_batch_rejected(self):
        with pytest.raises(ConfigurationError):
            PreloadProgram(n=4, k_preload=1, batches=[[ConfigMatrix(4), ConfigMatrix(4)]])

    def test_size_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            PreloadProgram(n=4, k_preload=1, batches=[[ConfigMatrix(5)]])


class TestWorkingSetSeries:
    def test_constant_trace(self):
        trace = [(0, 1)] * 10
        assert working_set_series(trace, 4) == [1] * 7

    def test_growing(self):
        trace = [(0, 1), (1, 2), (2, 3), (3, 0)]
        assert working_set_series(trace, 2) == [2, 2, 2]

    def test_short_trace(self):
        assert working_set_series([(0, 1)], 4) == []

    def test_bad_window(self):
        with pytest.raises(ConfigurationError):
            working_set_series([], 0)

    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=5, max_size=50))
    def test_property_bounded_by_window(self, trace):
        series = working_set_series(trace, 5)
        assert all(1 <= s <= 5 for s in series)
