"""Regression pin: iSLIP runs, record for record and pointer for pointer.

Eighteen small runs — 16 and 32 ports, one to three iterations, over
two-phase, random-mesh and two back-to-back saturating phases — each
committed under ``data/`` with its records, counters, per-slot match
sizes and the final grant/accept pointers.  Any change to the matcher's
tie-breaking, its pointer rule or the per-slot drain shows up here.

Regenerate the fixture only for an intended behaviour change::

    PYTHONPATH=src python tests/networks/test_islip_pin.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.experiments.figure4 import figure4_patterns
from repro.networks.islip import IslipNetwork
from repro.params import PAPER_PARAMS
from repro.sim.rng import RngStreams
from repro.traffic.base import TrafficPhase
from repro.types import Message

FIXTURE = Path(__file__).parent / "data" / "islip_pin.json"
PORTS = (16, 32)
ITERATIONS = (1, 2, 3)
WORKLOADS = ("two-phase", "random-mesh", "saturate")


def _saturating_phases(n: int, slot_bytes: int) -> list[TrafficPhase]:
    """Two phases in which every input holds traffic for every output from
    the phase start; the second phase inherits the first one's pointers."""
    phases = []
    for i, slots in enumerate((2, 3)):
        msgs = [
            Message(src=u, dst=v, size=slots * slot_bytes, inject_ps=0)
            for u in range(n)
            for v in range(n)
            if u != v
        ]
        phases.append(TrafficPhase(f"saturate/{i}", msgs))
    return phases


def _key(n: int, iterations: int, workload: str) -> str:
    return f"{workload}/n{n}/i{iterations}"


def observe(n: int, iterations: int, workload: str) -> dict:
    """Run one pinned cell; everything it shows, as plain JSON data."""
    params = PAPER_PARAMS.with_overrides(n_ports=n)
    if workload == "saturate":
        phases = _saturating_phases(n, params.slot_bytes)
    else:
        pattern = figure4_patterns(params, mesh_rounds=2, nn_rounds=2)[workload](256)
        phases = pattern.phases(RngStreams(3))
    net = IslipNetwork(params, iterations=iterations)
    result = net.run(phases, pattern_name=workload)
    return {
        "makespan_ps": result.makespan_ps,
        "records": [
            [r.src, r.dst, r.size, r.inject_ps, r.start_ps, r.done_ps, r.seq]
            for r in result.records
        ],
        "counters": result.counters,
        "slot_match_counts": net.slot_match_counts,
        "grant_ptr": net._grant_ptr.tolist(),
        "accept_ptr": net._accept_ptr.tolist(),
    }


@pytest.fixture(scope="module")
def expected() -> dict:
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("iterations", ITERATIONS)
@pytest.mark.parametrize("n", PORTS)
def test_islip_run_is_pinned(expected, n, iterations, workload):
    want = expected[_key(n, iterations, workload)]
    got = json.loads(json.dumps(observe(n, iterations, workload)))
    for key in want:
        assert got[key] == want[key], key


if __name__ == "__main__":
    cells = {
        _key(n, it, w): observe(n, it, w)
        for n in PORTS
        for it in ITERATIONS
        for w in WORKLOADS
    }
    text = json.dumps(cells, separators=(",", ":"), sort_keys=True)
    FIXTURE.write_text(text.replace("],[", "],\n[") + "\n", encoding="utf-8")
    print(f"wrote {FIXTURE}")
