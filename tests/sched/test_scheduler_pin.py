"""Regression pin: constrained and multi-unit SL passes, pass by pass.

Seeded request and latch sequences drive a
:class:`~repro.sched.constrained.ConstrainedScheduler` (Omega, tapered
fat-tree and a permissive constraint) and a
:class:`~repro.sched.multiunit.MultiUnitScheduler` (two and three units)
under each rotation policy.  The sequences include long stretches with an
empty pre-scheduling matrix, a pinned slot and a dead SL cell.  Every
pass's slot, toggles and blocked count, the final registers, the state of
the rotation and the counters (in insertion order) are committed under
``data/`` and must not change: an empty constrained pass must not draw a
rotation, and the counters must keep their order.

Regenerate the fixture only for an intended behaviour change::

    PYTHONPATH=src python tests/sched/test_scheduler_pin.py
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.fabric.config import ConfigMatrix
from repro.fabric.multistage import OmegaNetwork
from repro.params import PAPER_PARAMS
from repro.sched.constrained import ConstrainedScheduler
from repro.sched.multiunit import MultiUnitScheduler
from repro.sched.priority import (
    FixedPriority,
    RandomPriority,
    RotationPolicy,
    RoundRobinPriority,
)
from repro.sched.scheduler import Scheduler, SchedulerPass
from repro.topo import binary_fat_tree

FIXTURE = Path(__file__).parent / "data" / "scheduler_pin.json"
N = 16
K = 4
STEPS = 60
PARAMS = PAPER_PARAMS.with_overrides(n_ports=N)


class _Permissive:
    def is_realizable(self, config: ConfigMatrix) -> bool:
        return True


SCHEDULERS = {
    "omega": lambda rot: ConstrainedScheduler(PARAMS, K, OmegaNetwork(N), rot),
    "fattree": lambda rot: ConstrainedScheduler(
        PARAMS, K, binary_fat_tree(N, taper=4), rot
    ),
    "permissive": lambda rot: ConstrainedScheduler(PARAMS, K, _Permissive(), rot),
    "units2": lambda rot: MultiUnitScheduler(PARAMS, K, 2, rot),
    "units3": lambda rot: MultiUnitScheduler(PARAMS, K, 3, rot),
}

ROTATIONS = {
    "fixed": lambda: FixedPriority(N),
    "round-robin": lambda: RoundRobinPriority(N),
    "random": lambda: RandomPriority(N, np.random.default_rng(17)),
}

CASES = [(s, r) for s in SCHEDULERS for r in ROTATIONS]


def _tick(sched: Scheduler) -> list[SchedulerPass]:
    if isinstance(sched, MultiUnitScheduler):
        return sched.sl_tick()
    return [sched.sl_pass()]


def _rotation_state(rot: RotationPolicy) -> list[list[int]]:
    """The next three injection points: equal iff the policies agree."""
    return [list(rot.next_rotation()) for _ in range(3)]


def observe(scheduler: str, rotation: str) -> dict:
    """Run one pinned case; everything it shows, as plain JSON data."""
    rot = ROTATIONS[rotation]()
    sched = SCHEDULERS[scheduler](rot)
    rng = np.random.default_rng(1000 + 7 * list(SCHEDULERS).index(scheduler))
    sched.preload([ConfigMatrix(N)])  # slot 0 pinned, empty
    passes = []
    for step in range(STEPS):
        if step == STEPS // 2:
            sched.kill_cell(int(rng.integers(N)), int(rng.integers(N)))
        phase = (step // 10) % 3
        if phase == 0:  # a burst of new requests and latches
            for _ in range(int(rng.integers(1, 6))):
                u, v = int(rng.integers(N)), int(rng.integers(N))
                sched.set_request(u, v, True)
                if rng.random() < 0.2:
                    sched.latch(u, v)
        elif phase == 1:  # requests drop; latches are cleared now and then
            for u, v in np.argwhere(sched.r_view).tolist():
                if rng.random() < 0.3:
                    sched.set_request(u, v, False)
            if rng.random() < 0.2:
                sched.clear_latches()
        # phase 2: nothing changes, so L soon empties
        for p in _tick(sched):
            if p.outcome is None:
                passes.append([p.slot, None, None])
            else:
                passes.append(
                    [
                        p.slot,
                        [[t.u, t.v, t.establish] for t in p.outcome.toggles],
                        p.outcome.blocked,
                    ]
                )
    return {
        "passes": passes,
        "registers": [
            sorted([u, v] for u, v in sched.registers[s].connections())
            for s in range(K)
        ],
        "rotation": _rotation_state(rot),
        "counters": [[k, v] for k, v in sched.counters.as_dict().items()],
    }


@pytest.mark.parametrize(("scheduler", "rotation"), CASES)
def test_scheduler_run_is_pinned(scheduler, rotation):
    expected = json.loads(FIXTURE.read_text(encoding="utf-8"))[f"{scheduler}/{rotation}"]
    got = json.loads(json.dumps(observe(scheduler, rotation)))
    for key in ("registers", "rotation", "counters"):
        assert got[key] == expected[key], key
    assert len(got["passes"]) == len(expected["passes"])
    for i, (g, e) in enumerate(zip(got["passes"], expected["passes"])):
        assert g == e, f"pass {i} differs"


def test_pinned_runs_cover_empty_and_blocked_passes():
    """The pin is only worth its claim if it sees what it guards."""
    data = json.loads(FIXTURE.read_text(encoding="utf-8"))
    passes = [p for case in data.values() for p in case["passes"]]
    assert any(p[1] == [] and p[2] == 0 for p in passes)  # empty L
    assert any(p[1] and any(not t[2] for t in p[1]) for p in passes)  # releases
    assert any(p[2] for p in passes)  # blocked cells
    counters = {k for case in data.values() for k, _ in case["counters"]}
    assert {"blocked_by_fabric", "releases", "establishes"} <= counters


if __name__ == "__main__":
    fixture = {f"{s}/{r}": observe(s, r) for s, r in CASES}
    text = json.dumps(fixture, separators=(",", ":"))
    FIXTURE.write_text(text.replace("],[", "],\n[") + "\n", encoding="utf-8")
    print(f"wrote {FIXTURE}")
