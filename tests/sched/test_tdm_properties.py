"""Property tests for the TDM counter and scheduler long-run invariants."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fabric.registers import ConfigRegisterFile
from repro.params import PAPER_PARAMS
from repro.sched.scheduler import Scheduler
from repro.sched.tdm import TdmCounter

N = 8
PARAMS = PAPER_PARAMS.with_overrides(n_ports=N)


@st.composite
def register_files(draw, n=N, k=4):
    regs = ConfigRegisterFile(n, k)
    for slot in range(k):
        pairs = draw(
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                max_size=n,
            )
        )
        for u, v in pairs:
            cfg = regs[slot]
            if cfg.output_of(u) is None and cfg.input_of(v) is None:
                regs.establish(slot, u, v)
    return regs


@settings(max_examples=100, deadline=None)
@given(register_files())
def test_counter_never_lands_on_empty(regs):
    counter = TdmCounter(regs)
    active = set(regs.active_slots())
    for _ in range(3 * regs.k):
        slot = counter.advance()
        if not active:
            assert slot is None
        else:
            assert slot in active


@settings(max_examples=100, deadline=None)
@given(register_files())
def test_counter_visits_all_active_slots_round_robin(regs):
    counter = TdmCounter(regs)
    active = regs.active_slots()
    if not active:
        return
    visited = [counter.advance() for _ in range(len(active))]
    assert sorted(visited) == active  # each active slot exactly once per cycle
    # and the cycle repeats identically
    again = [counter.advance() for _ in range(len(active))]
    assert visited == again


@settings(max_examples=100, deadline=None)
@given(register_files())
def test_counter_pending_filter_subset(regs):
    """With a pending mask, the counter only lands on slots that carry it."""
    rng = np.random.default_rng(0)
    pending = rng.random((N, N)) < 0.3
    counter = TdmCounter(regs)
    for _ in range(2 * regs.k):
        slot = counter.advance(pending)
        if slot is not None:
            assert np.any(regs[slot].b & pending)


@st.composite
def request_traces(draw, n=N, steps=40):
    return draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1), st.integers(0, n - 1), st.booleans()
            ),
            max_size=steps,
        )
    )


@settings(max_examples=80, deadline=None)
@given(request_traces())
def test_scheduler_long_run_invariants(trace):
    """Arbitrary request evolutions keep every structural invariant."""
    sched = Scheduler(PARAMS, k=3)
    for u, v, val in trace:
        sched.set_request(u, v, val)
        sched.sl_pass()
        sched.registers.check_invariants()
        # a connection never occupies two slots without the boost extension
        assert sched.registers.presence_counts().max(initial=0) <= 1
    # eventually quiescent: drop all requests and run k passes per slot
    sched.set_requests(np.zeros_like(sched.r_view))
    for _ in range(2 * sched.k):
        sched.sl_pass()
    assert not sched.registers.b_star.any()


@settings(max_examples=50, deadline=None)
@given(request_traces())
def test_scheduler_satisfies_steady_requests(trace):
    """Any request set left standing long enough gets fully established,
    as long as it fits (one destination per source here)."""
    sched = Scheduler(PARAMS, k=3)
    wanted = {}
    for u, v, _ in trace:
        if u != v and u not in wanted:
            wanted[u] = v
    taken_outputs = set()
    feasible = {}
    for u, v in wanted.items():
        if v not in taken_outputs:
            feasible[u] = v
            taken_outputs.add(v)
    for u, v in feasible.items():
        sched.set_request(u, v, True)
    for _ in range(3 * sched.k):
        sched.sl_pass()
    for u, v in feasible.items():
        assert sched.established_anywhere(u, v)
