"""Property tests for the SL-pass memo of :meth:`Scheduler.sl_pass`.

A scheduler replays a pass that toggled nothing while its request plane
and its register file are unchanged.  Random sequences of request, latch,
boost and dead-cell writes (single and bulk), register writes (establish,
release, clear, pinned load, unpin, quarantine, stuck) and passes (implicit and
explicit slot) drive it and a twin whose memo is cleared before every
pass.  After every pass both must agree on the outcome, the registers, the
SL cursor, the next three rotations, the counters in insertion order and
the trace.  The request matrices are read-only outside the setters.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InvariantError
from repro.fabric.config import ConfigMatrix
from repro.fabric.multistage import OmegaNetwork
from repro.params import PAPER_PARAMS
from repro.sched.constrained import ConstrainedScheduler
from repro.sched.multiunit import MultiUnitScheduler
from repro.sched.priority import FixedPriority, RandomPriority, RoundRobinPriority
from repro.sched.scheduler import Scheduler
from repro.sim.trace import Tracer

N = 16
K = 3
#: requests concentrate on a few ports, so slots fill and cells block
HOT = 5
PARAMS = PAPER_PARAMS.with_overrides(n_ports=N)

SCHEDULERS = {
    "plain": lambda rot: Scheduler(PARAMS, K, rot),
    "omega": lambda rot: ConstrainedScheduler(PARAMS, K, OmegaNetwork(N), rot),
    "units2": lambda rot: MultiUnitScheduler(PARAMS, K, 2, rot),
}

ROTATIONS = {
    "fixed": lambda: FixedPriority(N),
    "round-robin": lambda: RoundRobinPriority(N),
    "random": lambda: RandomPriority(N, np.random.default_rng(5)),
}

port = st.integers(0, HOT)
cell = st.tuples(port, port)
cells = st.lists(cell, max_size=8)
slot = st.integers(0, K - 1)

op = st.one_of(
    st.tuples(st.just("request"), cell, st.booleans()),
    st.tuples(st.just("requests"), cells),
    st.tuples(st.just("latch"), cell, st.booleans()),
    st.tuples(st.just("clear-latches")),
    st.tuples(st.just("drop-port"), port),
    st.tuples(st.just("boost"), cells),
    st.tuples(st.just("kill"), cell),
    st.tuples(st.just("establish"), slot, cell),
    st.tuples(st.just("release"), slot, st.integers(0, HOT)),
    st.tuples(st.just("clear"), slot),
    st.tuples(st.just("load"), slot, cells),
    st.tuples(st.just("unpin"), slot),
    st.tuples(st.just("quarantine"), slot),
    st.tuples(st.just("stuck"), slot, st.booleans()),
    st.tuples(st.just("pass"), st.none() | st.integers(0, 2 * K)),
)
#: each operation is followed by a burst of implicit passes, so runs of
#: unchanged state get replayed
ops = st.lists(st.tuples(op, st.integers(0, 2 * K)), min_size=10, max_size=40)


def _mask(pairs: list[tuple[int, int]]) -> np.ndarray:
    m = np.zeros((N, N), dtype=bool)
    for u, v in pairs:
        m[u, v] = True
    return m


def _config(pairs: list[tuple[int, int]]) -> ConfigMatrix:
    cfg = ConfigMatrix(N)
    for u, v in pairs:
        if cfg.output_of(u) is None and cfg.input_of(v) is None:
            cfg.establish(u, v)
    return cfg


def _apply(sched: Scheduler, step: tuple) -> None:
    """One non-pass operation, applied only where the hardware allows it."""
    kind, *args = step
    regs = sched.registers
    if kind == "request":
        (u, v), value = args
        sched.set_request(u, v, value)
    elif kind == "requests":
        sched.set_requests(_mask(args[0]))
    elif kind == "latch":
        (u, v), value = args
        sched.latch(u, v, value)
    elif kind == "clear-latches":
        sched.clear_latches()
    elif kind == "drop-port":
        sched.drop_port(args[0])
    elif kind == "boost":
        sched.set_boost(_mask(args[0]))
    elif kind == "kill":
        sched.kill_cell(*args[0])
    elif kind == "establish":
        s, (u, v) = args
        cfg = regs[s]
        if (
            s not in regs.quarantined
            and cfg.output_of(u) is None
            and cfg.input_of(v) is None
        ):
            regs.establish(s, u, v)
    elif kind == "release":
        s, i = args
        held = sorted(regs[s].connections())
        if s not in regs.quarantined and held:
            regs.release(s, *held[i % len(held)])
    elif kind == "clear":
        regs.clear_slot(args[0])
    elif kind == "load":
        s, pairs = args
        if s not in regs.quarantined:
            regs.load(s, _config(pairs), pin=True)
    elif kind == "unpin":
        regs.unpin(args[0])
    elif kind == "quarantine":
        if len(regs.quarantined) < K - 1:
            sched.quarantine_slot(args[0])
    elif kind == "stuck":
        regs.set_stuck(*args)
    else:  # pragma: no cover - the strategy draws only the kinds above
        raise AssertionError(kind)


def _pass(sched: Scheduler, explicit: int | None) -> list:
    if explicit is None:
        passes = sched.sl_tick()
    else:
        dynamic = sched.registers.dynamic_slots()
        if not dynamic:
            return []
        passes = [sched.sl_pass(dynamic[explicit % len(dynamic)])]
    return [
        (
            p.slot,
            None
            if p.outcome is None
            else ([(t.u, t.v, t.establish) for t in p.outcome.toggles], p.outcome.blocked),
        )
        for p in passes
    ]


def _state(sched: Scheduler, tracer: Tracer) -> dict:
    regs = sched.registers
    rotation = copy.deepcopy(sched.rotation)  # drawn from, leaving the run alone
    return {
        "registers": [sorted(cfg.connections()) for cfg in regs],
        "b_star": regs.b_star.tolist(),
        "marks": (sorted(regs.pinned), sorted(regs.stuck), sorted(regs.quarantined)),
        "cursor": sched._sl_cursor,
        "rotations": [rotation.next_rotation() for _ in range(3)],
        "counters": list(sched.counters.as_dict().items()),
        "trace": [(e.time_ps, e.kind, e.payload) for e in tracer.events()],
    }


def _build(scheduler: str, rotation: str) -> tuple[Scheduler, Tracer]:
    sched = SCHEDULERS[scheduler](ROTATIONS[rotation]())
    tracer = Tracer()
    sched.tracer = tracer
    return sched, tracer


@pytest.mark.parametrize("rotation", list(ROTATIONS))
@pytest.mark.parametrize("scheduler", list(SCHEDULERS))
@settings(max_examples=30, deadline=None)
@given(steps=ops)
def test_memo_on_equals_memo_off(scheduler, rotation, steps):
    memo, memo_trace = _build(scheduler, rotation)
    memo.strict = True  # every replayed pass is also audited
    oracle, oracle_trace = _build(scheduler, rotation)
    now = 0
    for step, burst in steps:
        passes = [step[1]] if step[0] == "pass" else []
        if not passes:
            _apply(memo, step)
            _apply(oracle, step)
        for explicit in passes + [None] * burst:
            now += 1
            memo.clock = oracle.clock = lambda now=now: now
            oracle._memo.clear()
            assert _pass(memo, explicit) == _pass(oracle, explicit)
            assert _state(memo, memo_trace) == _state(oracle, oracle_trace)


@pytest.mark.parametrize("scheduler", list(SCHEDULERS))
def test_inert_passes_are_replayed(scheduler, monkeypatch):
    """Unchanged state after an inert pass: the evaluator is not called again."""
    sched, _ = _build(scheduler, "round-robin")
    for v in range(K + 1):
        sched.set_request(0, v, True)  # one more output than slots: one blocks
    for _ in range(4 * K):
        sched.sl_tick()
    evaluated = []
    evaluate = sched._evaluate
    monkeypatch.setattr(
        sched, "_evaluate", lambda *a: evaluated.append(a[0]) or evaluate(*a)
    )
    before = sched.counters.as_dict()
    for _ in range(2 * K):
        sched.sl_tick()
    assert evaluated == []
    after = sched.counters.as_dict()
    assert after["passes"] > before["passes"]
    assert after["blocked"] > before["blocked"]
    sched.set_request(0, 0, False)  # a real change: the next pass evaluates
    sched.sl_tick()
    assert evaluated


@pytest.mark.parametrize("plane", ["r_view", "latched", "boost"])
def test_request_plane_is_read_only(plane):
    sched = Scheduler(PARAMS, K)
    matrix = getattr(sched, plane)
    with pytest.raises(ValueError):
        matrix[0, 1] = True
    with pytest.raises(ValueError):
        matrix[:] = False
    assert not matrix.any()


def test_dead_cells_are_read_only():
    sched = Scheduler(PARAMS, K)
    sched.kill_cell(0, 1)
    assert sched.dead_cells is not None and sched.dead_cells[0, 1]
    with pytest.raises(ValueError):
        sched.dead_cells[0, 1] = False


def test_setters_bump_the_generation_only_on_change():
    sched = Scheduler(PARAMS, K)
    g = sched._generation
    sched.set_request(0, 1, False)
    sched.latch(0, 1, False)
    sched.clear_latches()
    sched.drop_port(3)
    sched.set_requests(np.zeros((N, N), dtype=bool))
    sched.set_boost(np.zeros((N, N), dtype=bool))
    assert sched._generation == g
    sched.set_request(0, 1, True)
    sched.set_request(0, 1, True)
    assert sched._generation == g + 1
    sched.drop_port(1)
    assert sched._generation == g + 2 and not sched.r_view.any()


def test_register_writes_bump_the_version():
    sched = Scheduler(PARAMS, K)
    regs = sched.registers
    seen = [regs.version]
    for write in (
        lambda: regs.establish(0, 0, 1),
        lambda: regs.release(0, 0, 1),
        lambda: regs.load(1, _config([(2, 3)]), pin=True),
        lambda: regs.unpin(1),
        lambda: regs.clear_slot(1),
        lambda: regs.set_stuck(2),
        lambda: regs.quarantine(2),
    ):
        write()
        seen.append(regs.version)
    assert seen == sorted(set(seen))


def test_strict_audit_rejects_a_stale_memo():
    sched = Scheduler(PARAMS, K)
    sched.strict = True
    sched.set_request(0, 1, True)
    # a memo entry claiming slot 0 inert, although (0, 1) would establish
    sched._memo[0] = ((sched._generation, sched.registers.version), 0, 1)
    with pytest.raises(InvariantError):
        sched.sl_pass(0)
    sched.strict = False
    assert not sched.sl_pass(0).outcome.toggles  # without the audit it is replayed
