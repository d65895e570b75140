"""Unit and property tests for the virtual output queues."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.nic.queues import VirtualOutputQueues
from repro.types import Message


def _voq(n=4, src=0):
    return VirtualOutputQueues(n, src)


class TestEnqueue:
    def test_basic(self):
        q = _voq()
        q.enqueue(Message(src=0, dst=1, size=64))
        assert q.bytes_pending[1] == 64
        assert (q.bytes_pending > 0).tolist() == [False, True, False, False]

    def test_wrong_source_rejected(self):
        q = _voq(src=0)
        with pytest.raises(ConfigurationError):
            q.enqueue(Message(src=1, dst=2, size=8))

    def test_bad_src_port(self):
        with pytest.raises(ConfigurationError):
            VirtualOutputQueues(4, 4)

    def test_request_vector(self):
        # R_u is the non-empty mask of the byte counters
        q = _voq()
        q.enqueue(Message(src=0, dst=1, size=8))
        q.enqueue(Message(src=0, dst=3, size=8))
        assert (q.bytes_pending > 0).tolist() == [False, True, False, True]

    def test_fifo_order(self):
        q = _voq()
        a = Message(src=0, dst=1, size=8)
        b = Message(src=0, dst=1, size=8)
        q.enqueue(a)
        q.enqueue(b)
        assert q.head(1) is a
        q.drain(1, 8, 0)
        assert q.head(1) is b


class TestDrain:
    def test_partial_drain(self):
        q = _voq()
        q.enqueue(Message(src=0, dst=1, size=100))
        moved, done = q.drain(1, 80, start_ps=0, byte_ps=1250)
        assert moved == 80
        assert done == []
        assert q.bytes_pending[1] == 20

    def test_complete_drain_records_times(self):
        q = _voq()
        q.enqueue(Message(src=0, dst=1, size=100))
        q.drain(1, 80, start_ps=0, byte_ps=1250)
        moved, done = q.drain(1, 80, start_ps=100_000, byte_ps=1250)
        assert moved == 20
        assert len(done) == 1
        dm = done[0]
        assert dm.start_ps == 0
        assert dm.finish_ps == 100_000 + 20 * 1250

    def test_multiple_messages_share_window(self):
        q = _voq()
        q.enqueue(Message(src=0, dst=1, size=30))
        q.enqueue(Message(src=0, dst=1, size=30))
        moved, done = q.drain(1, 80, start_ps=0, byte_ps=1250)
        assert moved == 60
        assert len(done) == 2
        assert done[0].finish_ps == 30 * 1250
        assert done[1].start_ps == 30 * 1250
        assert done[1].finish_ps == 60 * 1250

    def test_future_message_not_drained(self):
        q = _voq()
        q.enqueue(Message(src=0, dst=1, size=8, inject_ps=999_999))
        moved, done = q.drain(1, 80, start_ps=0, byte_ps=1250)
        assert moved == 0 and done == []

    def test_negative_budget_rejected(self):
        q = _voq()
        with pytest.raises(ConfigurationError):
            q.drain(1, -1, 0)

    def test_zero_budget(self):
        q = _voq()
        q.enqueue(Message(src=0, dst=1, size=8))
        moved, done = q.drain(1, 0, 0)
        assert moved == 0 and done == []

    def test_empty_queue(self):
        moved, done = _voq().drain(1, 80, 0)
        assert moved == 0 and done == []


class TestAccounting:
    def test_check_invariants(self):
        q = _voq()
        q.enqueue(Message(src=0, dst=1, size=64))
        q.drain(1, 10, 0, 1250)
        q.check_invariants()


@given(
    st.lists(st.tuples(st.integers(1, 3), st.integers(1, 200)), max_size=20),
    st.lists(st.integers(1, 100), max_size=40),
)
def test_property_byte_conservation(messages, drains):
    """Bytes drained + bytes pending == bytes enqueued, always."""
    q = _voq(4, 0)
    for dst, size in messages:
        q.enqueue(Message(src=0, dst=dst, size=size))
    drained = 0
    t = 0
    for budget in drains:
        for dst in (1, 2, 3):
            moved, _ = q.drain(dst, budget, t, 1250)
            drained += moved
        t += 1_000_000
        q.check_invariants()
    assert drained + int(q.bytes_pending.sum()) == sum(size for _, size in messages)
