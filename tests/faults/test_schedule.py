"""Unit tests for the deterministic fault schedule generator."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.faults import DEFAULT_WEIGHTS, FaultKind, FaultSchedule
from repro.sim.clock import us


def _generate(**overrides):
    kwargs = dict(
        seed=42, rate_per_us=2.0, horizon_ps=us(200), n_ports=16, k=4
    )
    kwargs.update(overrides)
    return FaultSchedule.generate(**kwargs)


class TestDeterminism:
    def test_same_seed_bit_identical(self):
        a = _generate()
        b = _generate()
        assert a.events == b.events

    def test_different_seed_differs(self):
        assert _generate(seed=1).events != _generate(seed=2).events

    def test_rate_change_differs(self):
        assert len(_generate(rate_per_us=8.0)) > len(_generate(rate_per_us=0.5))


class TestShape:
    def test_zero_rate_is_empty(self):
        sched = _generate(rate_per_us=0.0)
        assert len(sched) == 0
        assert not sched

    def test_zero_horizon_is_empty(self):
        assert not _generate(horizon_ps=0)

    def test_events_sorted_within_horizon(self):
        sched = _generate(rate_per_us=10.0)
        times = [ev.time_ps for ev in sched.events]
        assert times == sorted(times)
        assert all(0 < t <= us(200) for t in times)

    def test_fields_in_range(self):
        sched = _generate(rate_per_us=20.0, seed=7)
        assert len(sched) > 100  # enough draws to hit every branch
        for ev in sched.events:
            if ev.kind in (FaultKind.LINK_TRANSIENT, FaultKind.LINK_FAIL):
                assert 0 <= ev.port < 16
            if ev.kind is FaultKind.LINK_TRANSIENT:
                assert ev.duration_ps > 0
            if ev.kind in (FaultKind.REG_STUCK, FaultKind.REG_CORRUPT):
                assert 0 <= ev.slot < 4
            if ev.kind in (FaultKind.REQ_DROP, FaultKind.SL_DEAD):
                assert 0 <= ev.src < 16
                assert 0 <= ev.dst < 16
                assert ev.src != ev.dst

    def test_weights_restrict_kinds(self):
        sched = _generate(weights={FaultKind.REQ_DROP: 1.0})
        assert sched
        assert all(ev.kind is FaultKind.REQ_DROP for ev in sched.events)

    def test_default_weights_cover_all_kinds(self):
        assert set(DEFAULT_WEIGHTS) == set(FaultKind)
        assert sum(DEFAULT_WEIGHTS.values()) == pytest.approx(1.0)

    def test_unsorted_events_rejected(self):
        good = _generate(rate_per_us=10.0)
        with pytest.raises(ConfigurationError):
            FaultSchedule(events=tuple(reversed(good.events)))
