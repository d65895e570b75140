"""Timeline reductions: slot occupancy, port duty cycles, request latency."""

from __future__ import annotations

import pytest

from repro.experiments.figure4 import figure4_patterns
from repro.networks.registry import RunSpec, build_network
from repro.obs import (
    Kind,
    port_duty_cycle,
    request_latencies,
    slot_occupancy,
    utilization_report,
)
from repro.sim.rng import RngStreams
from repro.sim.trace import TraceEvent, Tracer


def ev(t, kind, **payload):
    return TraceEvent(t, kind, payload)


class TestSlotOccupancy:
    def test_counts_active_and_idle_periods(self):
        stats = slot_occupancy(
            [
                ev(0, Kind.SLOT_TRANSFER, slot=0, conns=2, bytes=160),
                ev(100, Kind.SLOT_TRANSFER, slot=0, conns=0, bytes=0),
                ev(100, Kind.SLOT_TRANSFER, slot=1, conns=1, bytes=80),
                ev(200, Kind.SLOT_TRANSFER, slot=0, conns=1, bytes=80),
            ]
        )
        assert sorted(stats) == [0, 1]
        s0 = stats[0]
        assert (s0.periods, s0.active_periods, s0.conns, s0.bytes) == (3, 2, 3, 240)
        assert s0.occupancy == pytest.approx(2 / 3)
        assert stats[1].occupancy == 1.0

    def test_ignores_other_kinds(self):
        assert slot_occupancy([ev(0, Kind.XFER, src=0, dst=1, bytes=8, slot=0)]) == {}


class TestPortDutyCycle:
    def test_duty_is_fraction_of_buckets_with_transfers(self):
        # span covers buckets 0..3; port 0 active in 2 of 4, port 1 in 1
        events = [
            ev(0, Kind.XFER, src=0, dst=1, bytes=80, slot=0),
            ev(150, Kind.XFER, src=0, dst=2, bytes=80, slot=1),
            ev(399, Kind.WORM_GRANTED, src=1, dst=0, bytes=80),
        ]
        ports = port_duty_cycle(events, period_ps=100)
        assert ports[0].duty_cycle == pytest.approx(2 / 4)
        assert ports[1].duty_cycle == pytest.approx(1 / 4)
        assert ports[0].transfers == 2 and ports[0].bytes == 160
        assert (ports[1].first_ps, ports[1].last_ps) == (399, 399)

    def test_all_transfer_kinds_count(self):
        events = [
            ev(0, Kind.XFER, src=0, dst=1, bytes=1, slot=0),
            ev(0, Kind.WORM_GRANTED, src=1, dst=2, bytes=1),
            ev(0, Kind.CIRCUIT_TX, src=2, dst=3, bytes=1, reused=True),
            ev(0, Kind.DELIVER, src=3, dst=4, size=1, seq=0),  # not a transfer
        ]
        assert sorted(port_duty_cycle(events, 100)) == [0, 1, 2]

    def test_rejects_nonpositive_period(self):
        with pytest.raises(ValueError, match="period_ps"):
            port_duty_cycle([], period_ps=0)

    def test_empty_events(self):
        assert port_duty_cycle([], period_ps=100) == {}


class TestRequestLatencies:
    def test_pairs_rise_with_next_establish(self):
        lat = request_latencies(
            [
                ev(100, Kind.REQ_RISE, src=0, dst=1),
                ev(350, Kind.CONN_ESTABLISH, src=0, dst=1, slot=2),
            ]
        )
        assert lat == [250]

    def test_rerise_keeps_original_timestamp(self):
        # the wire stayed high; the wait started at the first rise
        lat = request_latencies(
            [
                ev(100, Kind.REQ_RISE, src=0, dst=1),
                ev(200, Kind.REQ_RISE, src=0, dst=1),
                ev(300, Kind.CONN_ESTABLISH, src=0, dst=1, slot=0),
            ]
        )
        assert lat == [200]

    def test_req_drop_cancels_pending_request(self):
        lat = request_latencies(
            [
                ev(100, Kind.REQ_RISE, src=0, dst=1),
                ev(150, Kind.REQ_DROP, src=0, dst=1),
                ev(300, Kind.CONN_ESTABLISH, src=0, dst=1, slot=0),
            ]
        )
        assert lat == []

    def test_establish_without_rise_ignored(self):
        assert request_latencies(
            [ev(10, Kind.CONN_ESTABLISH, src=0, dst=1, slot=0)]
        ) == []

    def test_pairs_are_independent(self):
        lat = request_latencies(
            [
                ev(0, Kind.REQ_RISE, src=0, dst=1),
                ev(10, Kind.REQ_RISE, src=2, dst=3),
                ev(50, Kind.CONN_ESTABLISH, src=2, dst=3, slot=0),
                ev(90, Kind.CONN_ESTABLISH, src=0, dst=1, slot=1),
            ]
        )
        assert sorted(lat) == [40, 90]


class TestUtilizationReport:
    def test_empty_trace(self):
        report = utilization_report([], period_ps=100_000)
        assert "no transfer activity" in report

    def test_real_dynamic_tdm_run(self, params8):
        tracer = Tracer()
        net = build_network(RunSpec("dynamic-tdm", params8, tracer=tracer))
        pattern = figure4_patterns(params8)["random-mesh"](64)
        net.run(pattern.phases(RngStreams(1)), pattern.name)
        events = list(tracer.events())
        report = utilization_report(events, params8.slot_ps, label="dyn")
        assert "utilization: dyn" in report
        assert "slot  periods  active" in report
        assert "port  transfers" in report
        assert "request->grant latency" in report
        # every duty cycle is a sane fraction
        for stats in port_duty_cycle(events, params8.slot_ps).values():
            assert 0.0 < stats.duty_cycle <= 1.0
        for stats in slot_occupancy(events).values():
            assert 0.0 <= stats.occupancy <= 1.0
