"""Unit tests for the fault-campaign degradation digest."""

from __future__ import annotations

import pytest

from repro.metrics.degradation import degradation_report
from repro.networks.base import RunResult
from repro.params import PAPER_PARAMS
from repro.types import DropRecord, MessageRecord


def _record(seq: int, size: int = 100, done_ps: int = 1000) -> MessageRecord:
    return MessageRecord(
        src=0, dst=1, size=size, inject_ps=0, start_ps=0, done_ps=done_ps, seq=seq
    )


def _drop(seq: int, size: int = 100) -> DropRecord:
    return DropRecord(
        src=0, dst=1, size=size, sent_bytes=0, seq=seq,
        time_ps=500, reason="dead-link",
    )


def _result(records, drops, recovery_ps=(), counters=None, makespan_ps=10_000):
    return RunResult(
        scheme="test",
        pattern="unit",
        params=PAPER_PARAMS.with_overrides(n_ports=4),
        makespan_ps=makespan_ps,
        total_bytes=sum(r.size for r in records) + sum(d.size for d in drops),
        records=records,
        phases=[],
        counters=counters or {},
        drops=drops,
        recovery_ps=list(recovery_ps),
    )


class TestDegradationReport:
    def test_healthy_run(self):
        result = _result([_record(0), _record(1)], [])
        report = degradation_report(result)
        assert report.delivered == 2 and report.dropped == 0
        assert report.delivered_fraction == 1.0
        assert report.duplicated == 0
        assert report.recoveries == 0 and report.recovery_p99_ns == 0.0
        assert report.effective_bw_bytes_per_ns == pytest.approx(200 * 1000 / 10_000)

    def test_drops_lower_delivered_fraction(self):
        result = _result([_record(0)], [_drop(1), _drop(2), _drop(3)])
        report = degradation_report(result)
        assert report.delivered_fraction == pytest.approx(0.25)
        # effective bandwidth counts only delivered payload
        assert report.effective_bw_bytes_per_ns == pytest.approx(100 * 1000 / 10_000)

    def test_duplicates_detected_across_records_and_drops(self):
        dup_delivery = _result([_record(0), _record(0)], [])
        assert degradation_report(dup_delivery).duplicated == 1
        dup_mixed = _result([_record(0)], [_drop(0)])
        assert degradation_report(dup_mixed).duplicated == 1

    def test_recovery_distribution_in_ns(self):
        result = _result(
            [_record(0)], [], recovery_ps=[1_000_000, 2_000_000, 3_000_000]
        )
        report = degradation_report(result)
        assert report.recoveries == 3
        assert report.recovery_mean_ns == pytest.approx(2000.0, rel=0.05)
        assert report.recovery_max_ns == pytest.approx(3000.0, rel=0.05)

    def test_recovery_percentiles_are_exact(self):
        """Recovery latencies that are not 50 ns multiples give the exact
        nearest-rank p50/p99, not the upper edge of a 50 ns bin."""
        result = _result(
            [_record(0)], [], recovery_ps=[123_457, 1_234, 98_765, 70_001]
        )
        report = degradation_report(result)
        assert report.recovery_p50_ns == 70.001
        assert report.recovery_p99_ns == 123.457
        assert report.recovery_max_ns == 123.457

    def test_faults_applied_from_counters(self):
        result = _result(
            [_record(0)], [],
            counters={
                "fault_applied_link_fail": 2,
                "fault_applied_req_drop": 1,
                "fault_skipped_sl_dead": 5,
                "events": 1234,
            },
        )
        assert degradation_report(result).faults_applied == 3

    def test_str_is_informative(self):
        text = str(degradation_report(_result([_record(0)], [_drop(1)])))
        assert "delivered 0.500" in text
