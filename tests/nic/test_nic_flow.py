"""Unit tests for the NIC model and the flow ledger."""

from __future__ import annotations

import pytest

from repro.errors import InvariantError
from repro.nic.flow import FlowLedger
from repro.nic.nic import Nic
from repro.types import Message


@pytest.fixture
def nic():
    return Nic(8, port=2)


class TestNic:
    def test_enqueue_and_request(self, nic):
        nic.enqueue(Message(src=2, dst=5, size=64))
        assert nic.voqs.bytes_pending[5] > 0

    def test_purge_script_by_destination(self, nic):
        msgs = [Message(src=2, dst=d, size=8, seq=i) for i, d in enumerate([5, 1, 5, 3, 5])]
        nic.script.extend(msgs)
        script = nic.script
        assert nic.purge_script(5) == [msgs[0], msgs[2], msgs[4]]
        # in place: the survivors keep their order in the same deque
        assert nic.script is script
        assert list(script) == [msgs[1], msgs[3]]
        assert nic.purge_script(7) == []
        assert list(script) == [msgs[1], msgs[3]]

    def test_purge_script_without_destination_takes_all(self, nic):
        msgs = [Message(src=2, dst=d, size=8) for d in (4, 0, 4)]
        nic.script.extend(msgs)
        assert nic.purge_script() == msgs
        assert not nic.script


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
