"""Unit tests for efficiency, latency digests, and report formatting."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.metrics.efficiency import (
    efficiency,
    efficiency_from_bound,
    run_lower_bound_ps,
)
from repro.metrics.latencies import summarize_latencies
from repro.metrics.report import format_csv, format_series, format_table
from repro.networks.ideal import IdealNetwork
from repro.params import PAPER_PARAMS
from repro.sim.rng import RngStreams
from repro.traffic.base import TrafficPhase, assign_seq
from repro.traffic.scatter import ScatterPattern
from repro.types import Message, MessageRecord


@pytest.fixture
def params():
    return PAPER_PARAMS.with_overrides(n_ports=8)


class TestEfficiency:
    def test_ideal_network_is_efficiency_one(self, params):
        phases = ScatterPattern(8, 64).phases(RngStreams(0))
        result = IdealNetwork(params).run(phases)
        assert efficiency(result, phases) == pytest.approx(1.0)

    def test_bound_adds_over_phases(self, params):
        a = TrafficPhase("a", [Message(src=0, dst=1, size=100)])
        b = TrafficPhase("b", [Message(src=1, dst=2, size=100)])
        assign_seq([a, b])
        assert run_lower_bound_ps([a, b], params) == 2 * 100 * 1250

    def test_from_bound_validation(self):
        with pytest.raises(ConfigurationError):
            efficiency_from_bound(100, 0)
        with pytest.raises(ConfigurationError):
            efficiency_from_bound(0, 100)

    def test_no_phases_rejected(self, params):
        with pytest.raises(ConfigurationError):
            run_lower_bound_ps([], params)

    def test_real_networks_below_one(self, params):
        from repro.networks.wormhole import WormholeNetwork

        phases = ScatterPattern(8, 128).phases(RngStreams(0))
        result = WormholeNetwork(params).run(phases)
        eff = efficiency(result, phases)
        assert 0.0 < eff < 1.0


class TestLatencySummary:
    def test_digest(self, params):
        phases = ScatterPattern(8, 64).phases(RngStreams(0))
        result = IdealNetwork(params).run(phases)
        summary = summarize_latencies(result)
        assert summary.count == 7
        assert summary.mean_ns > 0
        # exact nearest-rank percentiles are observed samples
        assert summary.p50_ns <= summary.p99_ns <= summary.max_ns
        observed = {r.latency_ps / 1000.0 for r in result.records}
        assert {summary.p50_ns, summary.p99_ns} <= observed

    def test_percentiles_are_exact(self, params):
        """Latencies that are not 50 ns multiples report exactly."""
        records = [
            MessageRecord(src=0, dst=1, size=8, inject_ps=0, start_ps=0, done_ps=d, seq=i)
            for i, d in enumerate((1_234, 70_001, 98_765, 123_457))
        ]
        result = IdealNetwork(params).run(ScatterPattern(8, 64).phases(RngStreams(0)))
        result.records[:] = records
        summary = summarize_latencies(result)
        assert summary.p50_ns == 70.001
        assert summary.p99_ns == 123.457
        assert summary.max_ns == 123.457

    def test_empty(self, params):
        phases = ScatterPattern(8, 64).phases(RngStreams(0))
        result = IdealNetwork(params).run(phases)
        result.records.clear()
        summary = summarize_latencies(result)
        assert summary.count == 0 and summary.mean_ns == 0.0

    def test_str(self, params):
        phases = ScatterPattern(8, 64).phases(RngStreams(0))
        summary = summarize_latencies(IdealNetwork(params).run(phases))
        assert "p99" in str(summary)

    def test_empty_run_every_field_finite(self, params):
        """Regression: an empty record list must yield an all-zero digest,
        never a -inf maximum or a NaN quantile leaking out of the
        accumulators, and the digest must still format."""
        import math

        phases = ScatterPattern(8, 64).phases(RngStreams(0))
        result = IdealNetwork(params).run(phases)
        result.records.clear()
        summary = summarize_latencies(result)
        for value in (
            summary.mean_ns,
            summary.p50_ns,
            summary.p99_ns,
            summary.max_ns,
            summary.mean_service_ns,
        ):
            assert math.isfinite(value)
            assert value == 0.0
        assert "n=0" in str(summary)


class TestReportFormatting:
    def test_table_alignment(self):
        text = format_table(["a", "long header"], [[1, 2.5], [333, 4]])
        lines = text.strip().split("\n")
        assert len(lines) == 4
        assert "long header" in lines[0]
        assert "2.500" in text

    def test_table_title(self):
        text = format_table(["x"], [[1]], title="My Table")
        assert text.startswith("My Table\n")

    def test_series(self):
        text = format_series(
            "bytes", [8, 16], {"worm": [0.1, 0.2], "tdm": [0.3, 0.4]}
        )
        assert "bytes" in text and "worm" in text and "0.4" in text

    def test_csv(self):
        text = format_csv("x", [1, 2], {"s": [0.5, 0.25]})
        lines = text.strip().split("\n")
        assert lines[0] == "x,s"
        assert lines[1] == "1,0.500000"

    def test_series_rounding(self):
        text = format_series("x", [1], {"s": [0.123456]}, precision=2)
        assert "0.12" in text
