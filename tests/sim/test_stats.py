"""Unit tests for the online statistics accumulators."""

from __future__ import annotations


import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim.stats import Counter, OnlineStats


class TestOnlineStats:
    def test_empty(self):
        s = OnlineStats()
        assert s.count == 0

    def test_single_value(self):
        s = OnlineStats()
        s.add(5.0)
        assert s.mean == 5.0
        assert s.minimum == 5.0
        assert s.maximum == 5.0

    def test_known_sequence(self):
        s = OnlineStats()
        for x in [2, 4, 4, 4, 5, 5, 7, 9]:
            s.add(x)
        assert s.mean == pytest.approx(5.0)
        assert s.total == 40

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=200))
    def test_matches_numpy(self, xs):
        s = OnlineStats()
        for x in xs:
            s.add(x)
        assert s.mean == pytest.approx(np.mean(xs), rel=1e-9, abs=1e-6)
        assert s.minimum == min(xs)
        assert s.maximum == max(xs)


class TestCounter:
    def test_inc_and_get(self):
        c = Counter()
        c.inc("a")
        c.inc("a", 2)
        assert c["a"] == 3

    def test_missing_is_zero(self):
        assert Counter()["nope"] == 0

    def test_as_dict_copies(self):
        c = Counter()
        c.inc("a")
        d = c.as_dict()
        d["a"] = 99
        assert c["a"] == 1
