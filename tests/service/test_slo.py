"""Unit tests for SLO accounting: percentiles, windows, serialisation."""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigurationError
from repro.service.model import Outcome
from repro.service.slo import SloRecorder
from repro.sim.stats import percentile_ps


class TestPercentile:
    def test_empty_is_sentinel(self):
        assert percentile_ps([], 99) == -1

    def test_nearest_rank_exact(self):
        values = list(range(1, 101))  # 1..100
        assert percentile_ps(values, 50) == 50
        assert percentile_ps(values, 99) == 99
        assert percentile_ps(values, 100) == 100
        assert percentile_ps(values, 1) == 1

    def test_single_value(self):
        assert percentile_ps([7], 50) == 7
        assert percentile_ps([7], 99) == 7

    def test_small_sets_round_up(self):
        assert percentile_ps([10, 20], 50) == 10
        assert percentile_ps([10, 20], 51) == 20
        assert percentile_ps([10, 20, 30], 99) == 30

    @pytest.mark.parametrize("q", [0, -1, 101])
    def test_out_of_range_rejected(self, q):
        with pytest.raises(ConfigurationError):
            percentile_ps([1], q)

    def test_fractional_q_rank_is_exact(self):
        # regression: the rank was computed as ceil(len * q / 100) with a
        # float product — 375 * 8.8 == 3300.0000000000005, so the rank
        # came out 34 instead of the exact ceil(33) == 33
        values = list(range(375))
        assert percentile_ps(values, 8.8) == values[33 - 1]

    def test_fractional_q_rank_is_exact_other_boundary(self):
        values = list(range(250))
        # 250 * 64.4 == 16100 exactly -> rank 161
        assert percentile_ps(values, 64.4) == values[161 - 1]

    def test_p50_boundary_even_and_odd(self):
        assert percentile_ps([1, 2, 3, 4], 50) == 2  # rank ceil(2) == 2
        assert percentile_ps([1, 2, 3, 4, 5], 50) == 3  # rank ceil(2.5) == 3

    def test_p99_boundary(self):
        values = list(range(1, 101))
        assert percentile_ps(values, 99) == 99  # rank exactly 99
        assert percentile_ps(list(range(1, 102)), 99) == 100  # ceil(99.99)

    def test_fractional_q_string_semantics(self):
        # 99.9 means 999/10 exactly, not the nearest binary float
        values = list(range(1, 1001))
        assert percentile_ps(values, 99.9) == 999

    def test_nan_q_rejected(self):
        with pytest.raises(ConfigurationError):
            percentile_ps([1], float("nan"))


class TestRecorder:
    def test_window_and_cumulative_split(self):
        slo = SloRecorder(window_ps=1000)
        slo.note_arrival()
        slo.note_grant(100)
        slo.note_arrival()
        slo.note_shed(Outcome.SHED_QUEUE_FULL)
        snap = slo.close_window(1000, "NORMAL", queued=0, fabric={})
        assert (snap.arrivals, snap.granted, snap.shed) == (2, 1, 1)
        assert snap.availability == 0.5
        # window state reset, cumulative survives
        slo.note_arrival()
        slo.note_grant(200)
        snap2 = slo.close_window(2000, "NORMAL", queued=0, fabric={})
        assert (snap2.arrivals, snap2.granted, snap2.shed) == (1, 1, 0)
        assert snap2.cum_granted == 2
        assert slo.availability == 2 / 3

    def test_pressure_excludes_throttle_sheds(self):
        slo = SloRecorder(window_ps=1000)
        for _ in range(8):
            slo.note_grant(10)
        slo.note_shed(Outcome.SHED_THROTTLE)
        slo.note_shed(Outcome.SHED_THROTTLE)
        assert slo._w_granted + slo._w_shed == 10  # every shed is a decision
        assert slo.window_pressure_rate == 0.0  # throttle is the bucket working
        slo.note_shed(Outcome.SHED_TIMEOUT)
        assert slo.window_pressure_rate == pytest.approx(1 / 9)

    def test_rejects_do_not_count_against_availability(self):
        slo = SloRecorder(window_ps=1000)
        slo.note_grant(10)
        for _ in range(5):
            slo.note_reject_dead()
        assert slo.availability == 1.0
        assert slo.rejected_dead == 5

    def test_non_shed_outcome_rejected(self):
        slo = SloRecorder(window_ps=1000)
        with pytest.raises(ConfigurationError):
            slo.note_shed(Outcome.GRANTED)

    def test_empty_window_defaults(self):
        slo = SloRecorder(window_ps=1000)
        assert not slo.window_dirty
        snap = slo.close_window(1000, "NORMAL", queued=0, fabric={})
        assert snap.availability == 1.0
        assert snap.shed_rate == 0.0
        assert snap.p99_grant_ps == -1

    def test_jsonl_keys_are_ordered_and_stable(self):
        slo = SloRecorder(window_ps=1000)
        slo.note_arrival()
        slo.note_grant(100)
        slo.close_window(1000, "NORMAL", queued=2, fabric={"b": 1, "a": 2})
        line = slo.to_jsonl().strip()
        obj = json.loads(line)
        assert list(obj)[:3] == ["t_ps", "window_ps", "level"]
        assert list(obj["fabric"]) == ["a", "b"]  # sorted for byte stability
        # identical recorder state serialises byte-identically
        assert slo.to_jsonl() == slo.to_jsonl()

    def test_write_jsonl_roundtrip(self, tmp_path):
        slo = SloRecorder(window_ps=1000)
        slo.note_grant(1)
        slo.close_window(1000, "NORMAL", queued=0, fabric={})
        slo.note_grant(2)
        slo.close_window(2000, "THROTTLED", queued=1, fabric={})
        path = tmp_path / "slo.jsonl"
        assert slo.write_jsonl(path) == 2
        lines = path.read_text().splitlines()
        assert [json.loads(ln)["level"] for ln in lines] == ["NORMAL", "THROTTLED"]
