"""Unit tests for the NIC model and the flow ledger."""

from __future__ import annotations

import pytest

from repro.errors import InvariantError
from repro.nic.flow import FlowLedger
from repro.nic.nic import Nic
from repro.params import PAPER_PARAMS
from repro.types import Message, MessageRecord


@pytest.fixture
def nic():
    return Nic(PAPER_PARAMS.with_overrides(n_ports=8), port=2)


class TestNic:
    def test_enqueue_and_request(self, nic):
        nic.enqueue(Message(src=2, dst=5, size=64))
        assert nic.voqs.bytes_pending[5] > 0
        assert not nic.voqs.is_empty

    def test_receive_accounting(self, nic):
        rec = MessageRecord(
            src=0, dst=2, size=64, inject_ps=0, start_ps=10, done_ps=20, seq=0
        )
        nic.receive(rec)
        assert nic.bytes_received == 64
        assert nic.records == [rec]


class TestFlowLedger:
    def test_happy_path(self):
        led = FlowLedger(4)
        led.offer(0, 1, 100)
        led.send(0, 1, 60)
        led.send(0, 1, 40)
        led.deliver(0, 1, 100)
        led.assert_conserved()
        assert led.total_delivered == 100
        assert led.in_flight == 0

    def test_send_exceeding_offer(self):
        led = FlowLedger(4)
        led.offer(0, 1, 10)
        with pytest.raises(InvariantError):
            led.send(0, 1, 11)

    def test_deliver_exceeding_send(self):
        led = FlowLedger(4)
        led.offer(0, 1, 10)
        led.send(0, 1, 10)
        with pytest.raises(InvariantError):
            led.deliver(0, 1, 11)

    def test_unsent_bytes_detected(self):
        led = FlowLedger(4)
        led.offer(0, 1, 10)
        with pytest.raises(InvariantError):
            led.assert_conserved()

    def test_in_flight_detected(self):
        led = FlowLedger(4)
        led.offer(0, 1, 10)
        led.send(0, 1, 10)
        assert led.in_flight == 10
        with pytest.raises(InvariantError):
            led.assert_conserved()
