"""Unit tests for the eviction predictors."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.predict.base import NullPredictor
from repro.predict.counter import CounterPredictor
from repro.predict.timeout import TimeoutPredictor
from repro.types import Connection


class TestNullPredictor:
    def test_never_holds(self):
        p = NullPredictor()
        p.on_use(0, 1, 100)
        assert p.on_empty(0, 1, 200) is False
        assert p.expired(10_000) == []


class TestTimeoutPredictor:
    def test_positive_timeout_required(self):
        with pytest.raises(ConfigurationError):
            TimeoutPredictor(0)

    def test_holds_then_expires(self):
        p = TimeoutPredictor(1000)
        assert p.on_empty(0, 1, 0) is True
        assert p.expired(999) == []
        assert p.expired(1000) == [Connection(0, 1)]
        assert p.expired(1000) == []  # already evicted

    def test_use_refreshes_deadline(self):
        p = TimeoutPredictor(1000)
        p.on_empty(0, 1, 0)
        p.on_use(0, 1, 900)
        assert p.expired(1000) == []
        assert p.expired(1900) == [Connection(0, 1)]

    def test_use_of_untracked_is_noop(self):
        p = TimeoutPredictor(1000)
        p.on_use(0, 1, 100)
        assert p.expired(10_000) == []

    def test_flush_clears(self):
        p = TimeoutPredictor(1000)
        p.on_empty(0, 1, 0)
        p.on_flush(10)
        assert p.expired(10_000) == []

    def test_stats(self):
        p = TimeoutPredictor(1000)
        p.on_empty(0, 1, 0)
        p.expired(2000)
        s = p.stats()
        assert s["holds"] == 1 and s["evictions"] == 1 and s["latched"] == 0


class TestCounterPredictor:
    def test_positive_threshold_required(self):
        with pytest.raises(ConfigurationError):
            CounterPredictor(0)

    def test_evicts_after_other_uses(self):
        p = CounterPredictor(3)
        p.on_empty(0, 1, 0)
        for _ in range(2):
            p.on_use(5, 6, 0)
        assert p.expired(0) == []
        p.on_use(5, 6, 0)
        assert p.expired(0) == [Connection(0, 1)]

    def test_own_use_resets(self):
        p = CounterPredictor(3)
        p.on_empty(0, 1, 0)
        p.on_use(5, 6, 0)
        p.on_use(5, 6, 0)
        p.on_use(0, 1, 0)  # resets the counter
        p.on_use(5, 6, 0)
        p.on_use(5, 6, 0)
        assert p.expired(0) == []

    def test_computation_phase_immunity(self):
        """No other uses -> the latch survives arbitrarily long."""
        p = CounterPredictor(1)
        p.on_empty(0, 1, 0)
        assert p.expired(10**12) == []

    def test_flush_and_forget(self):
        p = CounterPredictor(1)
        p.on_empty(0, 1, 0)
        p.on_flush(0)
        p.on_use(5, 6, 0)
        assert p.expired(0) == []
