"""Property test: ``VirtualOutputQueues.drain`` equals the plain drain loop.

``drain`` takes a shortcut for the common mid-message slot — a head that
is injected and outlasts the budget — before falling back to its general
loop.  The oracle here is that loop alone.  Random queues, injection
times, start times and budgets (including a zero budget, a head remainder
exactly equal to the budget and a head not yet injected) are drained by
both; every step must move the same bytes, complete the same messages
with the same start and finish times, and leave the same byte counters.
A final flush of every queue exposes the first-byte times each side
recorded for messages still in flight.
"""

from __future__ import annotations

from collections import deque

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nic.queues import VirtualOutputQueues
from repro.types import Message

N = 4
SRC = 0


class LoopQueues:
    """The oracle: per-destination FIFOs drained by the plain loop."""

    def __init__(self) -> None:
        self.queues: list[deque[Message]] = [deque() for _ in range(N)]
        self.bytes_pending = np.zeros(N, dtype=np.int64)
        self.starts: dict[int, int] = {}

    def enqueue(self, msg: Message) -> None:
        self.queues[msg.dst].append(msg)
        self.bytes_pending[msg.dst] += msg.size

    def drain(self, dst: int, max_bytes: int, start_ps: int, byte_ps: int):
        q = self.queues[dst]
        moved = 0
        done = []
        while q and moved < max_bytes:
            msg = q[0]
            if msg.inject_ps > start_ps + moved * byte_ps:
                break
            if msg.remaining == msg.size and id(msg) not in self.starts:
                self.starts[id(msg)] = start_ps + moved * byte_ps
            take = min(msg.remaining, max_bytes - moved)
            msg.remaining -= take
            moved += take
            if msg.remaining == 0:
                q.popleft()
                done.append((msg.seq, self.starts.pop(id(msg)), start_ps + moved * byte_ps))
        self.bytes_pending[dst] -= moved
        return moved, done


#: how a step's budget is derived from the oracle's head remainder
BUDGETS = ("zero", "fixed", "exact", "one-less", "one-more")


@st.composite
def drain_case(draw):
    msgs = draw(
        st.lists(
            st.tuples(
                st.integers(1, N - 1),  # dst
                st.integers(1, 300),  # size
                st.integers(0, 2000),  # inject_ps
            ),
            min_size=1,
            max_size=12,
        )
    )
    steps = draw(
        st.lists(
            st.tuples(
                st.integers(1, N - 1),  # dst
                st.sampled_from(BUDGETS),
                st.integers(0, 250),  # fixed budget
                st.integers(0, 2500),  # start_ps
                st.sampled_from([0, 1, 10]),  # byte_ps
            ),
            min_size=1,
            max_size=20,
        )
    )
    return msgs, steps


def _budget(kind: str, fixed: int, head: Message | None) -> int:
    if kind == "zero":
        return 0
    if kind == "fixed" or head is None:
        return fixed
    return max(0, head.remaining + {"exact": 0, "one-less": -1, "one-more": 1}[kind])


def _done(done) -> list[tuple[int, int, int]]:
    return [(d.message.seq, d.start_ps, d.finish_ps) for d in done]


@settings(max_examples=400, deadline=None)
@given(drain_case())
def test_drain_equals_loop(case):
    msgs, steps = case
    voqs = VirtualOutputQueues(N, SRC)
    oracle = LoopQueues()
    for seq, (dst, size, inject) in enumerate(msgs):
        voqs.enqueue(Message(src=SRC, dst=dst, size=size, inject_ps=inject, seq=seq))
        oracle.enqueue(Message(src=SRC, dst=dst, size=size, inject_ps=inject, seq=seq))
    for dst, kind, fixed, start, byte_ps in steps:
        q = oracle.queues[dst]
        budget = _budget(kind, fixed, q[0] if q else None)
        got_moved, got_done = voqs.drain(dst, budget, start, byte_ps)
        want_moved, want_done = oracle.drain(dst, budget, start, byte_ps)
        assert got_moved == want_moved
        assert _done(got_done) == want_done
        assert voqs.bytes_pending.tolist() == oracle.bytes_pending.tolist()
        head = voqs.head(dst)
        assert (None if head is None else head.remaining) == (
            q[0].remaining if q else None
        )
    # flush: completes every message, revealing recorded first-byte times
    for dst in range(1, N):
        got_moved, got_done = voqs.drain(dst, 10**6, 10**5, 1)
        want_moved, want_done = oracle.drain(dst, 10**6, 10**5, 1)
        assert got_moved == want_moved
        assert _done(got_done) == want_done
    assert not voqs.bytes_pending.any()
