"""Property tests for the rules the slot-synchronous fast path borrows.

* :meth:`TdmCounter.cycle` is exactly the sequence successive
  :meth:`TdmCounter.advance` calls produce while the registers and the
  request matrix stay frozen, and that sequence repeats with the cycle's
  length (empty, pinned and quarantined slots included);
* :meth:`Scheduler.skip_inert_passes` leaves the SL cursor, the rotation
  and the counters exactly as ``j`` real :meth:`Scheduler.sl_pass` calls
  that :meth:`Scheduler.inert_blocked` marks inert would.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fabric.config import ConfigMatrix
from repro.fabric.registers import ConfigRegisterFile
from repro.params import PAPER_PARAMS
from repro.sched.priority import (
    FixedPriority,
    RandomPriority,
    RotationPolicy,
    RoundRobinPriority,
)
from repro.sched.scheduler import Scheduler
from repro.sched.tdm import TdmCounter

N = 6
K = 4
PARAMS = PAPER_PARAMS.with_overrides(n_ports=N)

port = st.integers(0, N - 1)
cells = st.tuples(port, port)
pairs = st.lists(cells, max_size=N)


def _config(connections: list[tuple[int, int]]) -> ConfigMatrix:
    cfg = ConfigMatrix(N)
    for u, v in connections:
        if cfg.output_of(u) is None and cfg.input_of(v) is None:
            cfg.establish(u, v)
    return cfg


# -- the TDM frame ----------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(
    slots=st.lists(pairs, min_size=K, max_size=K),
    pinned=st.sets(st.integers(0, K - 1)),
    quarantined=st.sets(st.integers(0, K - 1), max_size=K - 1),
    pending=st.one_of(st.none(), pairs),
    current=st.integers(0, K - 1),
)
def test_cycle_is_what_advance_visits(slots, pinned, quarantined, pending, current):
    regs = ConfigRegisterFile(N, K)
    for s, conns in enumerate(slots):
        regs.load(s, _config(conns), pin=s in pinned)
    for s in sorted(quarantined):
        regs.quarantine(s)
    mask = None
    if pending is not None:
        mask = np.zeros((N, N), dtype=bool)
        for u, v in pending:
            mask[u, v] = True
    counter = TdmCounter(regs, current=current)
    cycle = counter.cycle(mask)
    assert len(set(cycle)) == len(cycle)
    assert not set(cycle) & quarantined
    visited = [counter.advance(mask) for _ in range(2 * K + 1)]
    if not cycle:
        assert visited == [None] * len(visited)
        assert counter.current == current
        return
    assert visited == [cycle[i % len(cycle)] for i in range(len(visited))]
    # the period is the same from wherever the counter stands in it
    assert counter.cycle(mask) == [
        cycle[(len(visited) + i) % len(cycle)] for i in range(len(cycle))
    ]


# -- inert SL passes ----------------------------------------------------------------

ROTATIONS = {
    "fixed": lambda: FixedPriority(N),
    "round-robin": lambda: RoundRobinPriority(N),
    "random": lambda: RandomPriority(N, np.random.default_rng(3)),
}


def _rotation_state(rot: RotationPolicy) -> list[tuple[int, int]]:
    return [rot.next_rotation() for _ in range(3)]


def _snapshot(sched: Scheduler) -> tuple:
    return (
        sched._sl_cursor,
        _rotation_state(sched.rotation),
        list(sched.counters.as_dict().items()),
        [sorted(sched.registers[s].connections()) for s in range(K)],
    )


@st.composite
def scheduler_states(draw):
    """A recipe for a scheduler that has settled and then seen new requests."""
    return {
        "rotation": draw(st.sampled_from(sorted(ROTATIONS))),
        "pinned": draw(st.integers(0, K)),
        "requests": draw(pairs),
        "latches": draw(st.lists(cells, max_size=3)),
        "settle": draw(st.integers(0, 3 * K)),
        "later": draw(st.lists(st.tuples(port, port, st.booleans()), max_size=3)),
    }


def _build(recipe: dict) -> Scheduler:
    sched = Scheduler(PARAMS, K, ROTATIONS[recipe["rotation"]]())
    if recipe["pinned"]:
        pinned = [_config([(0, 0)])] + [ConfigMatrix(N)] * (recipe["pinned"] - 1)
        sched.preload(pinned)
    for u, v in recipe["requests"]:
        sched.set_request(u, v, True)
    for u, v in recipe["latches"]:
        sched.latch(u, v)
    for _ in range(recipe["settle"]):
        sched.sl_pass()
    for u, v, value in recipe["later"]:
        sched.set_request(u, v, value)
    return sched


@settings(max_examples=300, deadline=None)
@given(scheduler_states())
def test_one_inert_pass_matches_a_real_pass(recipe):
    real = _build(recipe)
    blocked = real.inert_blocked()
    if blocked is None:
        return  # the next pass may toggle: nothing to skip
    p = real.sl_pass()
    assert p.outcome is None or (p.outcome.toggles, p.outcome.blocked) == ([], blocked)
    skipped = _build(recipe)
    skipped.skip_inert_passes(1, blocked)
    assert _snapshot(skipped) == _snapshot(real)


@settings(max_examples=300, deadline=None)
@given(scheduler_states(), st.integers(1, 3 * K))
def test_inert_passes_over_every_slot_match_real_passes(recipe, j):
    real = _build(recipe)
    blocked = real.inert_blocked(real.registers.dynamic_slots())
    if blocked is None:
        return
    for _ in range(j):
        assert real.inert_blocked() == blocked
        p = real.sl_pass()
        assert p.outcome is None or (p.outcome.toggles, p.outcome.blocked) == ([], blocked)
    skipped = _build(recipe)
    skipped.skip_inert_passes(j, blocked)
    assert _snapshot(skipped) == _snapshot(real)


def test_inert_passes_without_dynamic_slots_are_idle():
    for make in ROTATIONS.values():
        real = Scheduler(PARAMS, K, make())
        skipped = Scheduler(PARAMS, K, make())
        for sched in (real, skipped):
            sched.preload([_config([(0, 1)])] * K)
            sched.set_request(2, 3, True)
        assert real.inert_blocked() == 0
        for _ in range(5):
            assert real.sl_pass().slot is None
        skipped.skip_inert_passes(5, 0)
        assert _snapshot(skipped) == _snapshot(real)
        assert real.counters["passes_idle"] == 5


def test_settled_schedulers_are_often_inert():
    """The properties above are not vacuous: settled states prove inert."""
    inert = 0
    for seed in range(40):
        rng = np.random.default_rng(seed)
        sched = Scheduler(PARAMS, K, RoundRobinPriority(N))
        for _ in range(10):
            sched.set_request(int(rng.integers(N)), int(rng.integers(N)), True)
        for _ in range(3 * K):
            sched.sl_pass()
        blocked = sched.inert_blocked(sched.registers.dynamic_slots())
        if blocked is not None:
            inert += 1
    assert inert >= 30


def test_dead_cells_are_never_inert():
    sched = Scheduler(PARAMS, K)
    sched.kill_cell(0, 1)
    assert sched.inert_blocked() is None
