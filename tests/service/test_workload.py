"""Unit tests for the seeded workload generators."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.service.workload import Arrival, WorkloadSpec, predicted_pairs
from repro.sim.clock import us


def _spec(**overrides) -> WorkloadSpec:
    base = dict(
        kind="poisson",
        n_ports=8,
        rate_per_s=2_000_000.0,
        mean_hold_ps=us(5),
        duration_ps=us(200),
    )
    base.update(overrides)
    return WorkloadSpec(**base)


class TestGeneration:
    def test_deterministic_for_fixed_seed(self):
        spec = _spec()
        assert spec.generate(7) == spec.generate(7)
        assert spec.generate(7) != spec.generate(8)

    def test_arrivals_sorted_and_inside_horizon(self):
        arrivals = _spec().generate(3)
        assert arrivals
        times = [a.time_ps for a in arrivals]
        assert times == sorted(times)
        assert all(0 <= t < us(200) for t in times)
        assert all(a.hold_ps >= 1 for a in arrivals)
        assert all(a.src != a.dst for a in arrivals)

    def test_rate_roughly_honoured(self):
        arrivals = _spec(duration_ps=us(1000)).generate(11)
        # 2e6/s over 1000 us => ~2000 expected; allow wide stochastic slack
        assert 1500 < len(arrivals) < 2500

    def test_bursty_off_period_is_silent(self):
        spec = _spec(kind="bursty", on_ps=us(10), off_ps=us(10))
        arrivals = spec.generate(5)
        period = us(20)
        assert arrivals
        assert all((a.time_ps % period) < us(10) for a in arrivals)

    def test_hotspot_concentrates_on_hot_ports(self):
        spec = _spec(kind="hotspot", hotspot_fraction=0.8, n_hot=2, duration_ps=us(1000))
        arrivals = spec.generate(9)
        hot = sum(1 for a in arrivals if a.dst < 2)
        # 0.8 targeted + ~2/8 of the uniform remainder land hot anyway
        assert hot / len(arrivals) > 0.7

    def test_overload_burst_raises_local_density(self):
        horizon = us(1000)
        spec = _spec(
            duration_ps=horizon,
            overload=((horizon // 4, horizon // 2, 4.0),),
        )
        arrivals = spec.generate(13)
        inside = sum(1 for a in arrivals if horizon // 4 <= a.time_ps < horizon // 2)
        outside = len(arrivals) - inside
        # the burst quarter carries 4x the density of the other three quarters
        assert inside > outside


class TestValidation:
    @pytest.mark.parametrize(
        "overrides",
        [
            dict(kind="nope"),
            dict(n_ports=1),
            dict(rate_per_s=0.0),
            dict(mean_hold_ps=0),
            dict(duration_ps=0),
            dict(kind="bursty", on_ps=0),
            dict(kind="hotspot", hotspot_fraction=1.5),
            dict(kind="hotspot", n_hot=8),
            dict(overload=((10, 5, 2.0),)),
            dict(overload=((0, 10, 0.0),)),
        ],
    )
    def test_bad_specs_rejected(self, overrides):
        with pytest.raises(ConfigurationError):
            _spec(**overrides)


class TestPredictedPairs:
    def test_ranked_by_frequency_then_pair(self):
        arrivals = [
            Arrival(0, 1, 2, 10),
            Arrival(1, 1, 2, 10),
            Arrival(2, 3, 4, 10),
            Arrival(3, 0, 5, 10),
            Arrival(4, 3, 4, 10),
            Arrival(5, 3, 4, 10),
        ]
        assert predicted_pairs(arrivals, 2) == ((3, 4), (1, 2))
        # tie between (1,2)x2 — (0,5) loses with count 1; ties break on pair
        assert predicted_pairs(arrivals, 3) == ((3, 4), (1, 2), (0, 5))

    def test_zero_count_and_empty(self):
        assert predicted_pairs([], 4) == ()
        assert predicted_pairs([Arrival(0, 1, 2, 10)], 0) == ()
