"""Regression pin: two multi-switch TDM runs, event for event.

A traced ``mesh-tdm`` run (32 endpoints on a 4-switch mesh, so the faults
land on trunks the traffic uses) under a seeded trunk-fault plan
with both transient (``down``) and permanent (``dead``) entries exercises
every reaction of the multi-switch data plane at once: wavefront NAKs,
coordinator placements, circuits blocked in their slots by a down trunk,
dead-trunk teardown and re-routing, request drops and recovery windows.
A traced ``fattree-tdm`` run over an oversubscribed tree adds three-switch
circuits and spine contention.  Each run's ``RunResult`` (records, drops,
counters, recovery latencies) and its full trace are committed under
``data/`` and must not change.

Regenerate the fixture only for an intended behaviour change::

    PYTHONPATH=src python tests/networks/test_multiswitch_pin.py
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.faults.injector import FaultInjector
from repro.faults.schedule import FaultSchedule
from repro.networks.base import BaseNetwork
from repro.networks.registry import RunSpec, build_network
from repro.params import PAPER_PARAMS
from repro.sim.trace import Tracer
from repro.traffic.base import TrafficPhase
from repro.types import Message

FIXTURE = Path(__file__).parent / "data" / "multiswitch_pin.json"
N = 32
RUNS = ("mesh-tdm-faulted", "fattree-tdm")


def _phases(seed: int, per_phase: int = 64) -> list[TrafficPhase]:
    """Two phases of seeded point-to-point sends with staggered injection."""
    gen = np.random.default_rng(seed)
    phases = []
    for p in range(2):
        msgs, t = [], 0
        for _ in range(per_phase):
            u = int(gen.integers(0, N))
            v = int(gen.integers(0, N - 1))
            if v >= u:
                v += 1
            t += int(gen.integers(0, 40_000))
            size = int(gen.integers(40, 600))
            msgs.append(Message(src=u, dst=v, size=size, inject_ps=t))
        phases.append(TrafficPhase(f"p{p}", msgs))
    return phases


def _trunk_plan(n_links: int, seed: int) -> tuple[tuple[int, int, str, int], ...]:
    """Seeded transient outages plus two permanent trunk deaths."""
    gen = np.random.default_rng(seed)
    plan = []
    for i in range(8):
        time_ps = int(gen.integers(100_000, 3_000_000))
        link = int(gen.integers(0, n_links))
        if i % 4 == 3:
            plan.append((time_ps, link, "dead", 0))
        else:
            plan.append((time_ps, link, "down", int(gen.integers(200_000, 900_000))))
    return tuple(plan)


def build(run: str) -> tuple[BaseNetwork, Tracer]:
    params = PAPER_PARAMS.with_overrides(n_ports=N)
    tracer = Tracer()
    if run == "mesh-tdm-faulted":
        probe = build_network(
            RunSpec(
                scheme="mesh-tdm",
                params=params,
                k=4,
                options={"n_switches": 4, "links_per_pair": 2},
            )
        )
        spec = RunSpec(
            scheme="mesh-tdm",
            params=params,
            k=4,
            tracer=tracer,
            strict=True,
            faults=FaultInjector(FaultSchedule(events=())),
            options={
                "n_switches": 4,
                "links_per_pair": 2,
                "trunk_faults": _trunk_plan(probe.topology.n_links, 17),
            },
        )
    else:
        spec = RunSpec(
            scheme="fattree-tdm",
            params=params,
            k=4,
            tracer=tracer,
            strict=True,
            options={"leaf_size": 8, "taper": 2},
        )
    return build_network(spec), tracer


def observe(run: str) -> dict:
    """Run one pinned workload; everything it shows, as plain JSON data."""
    net, tracer = build(run)
    result = net.run(_phases(5 if run == "mesh-tdm-faulted" else 9))
    assert tracer.dropped == 0
    return {
        "makespan_ps": result.makespan_ps,
        "records": [
            [r.src, r.dst, r.size, r.inject_ps, r.start_ps, r.done_ps, r.seq]
            for r in result.records
        ],
        "drops": [
            [d.src, d.dst, d.size, d.sent_bytes, d.seq, d.time_ps, d.reason]
            for d in result.drops
        ],
        "counters": result.counters,
        "recovery_ps": result.recovery_ps,
        "trace": [[e.time_ps, e.kind, e.payload] for e in tracer.events()],
    }


@pytest.mark.parametrize("run", RUNS)
def test_multiswitch_run_is_pinned(run):
    expected = json.loads(FIXTURE.read_text(encoding="utf-8"))[run]
    got = json.loads(json.dumps(observe(run)))
    for key in ("makespan_ps", "records", "drops", "counters", "recovery_ps"):
        assert got[key] == expected[key], key
    assert len(got["trace"]) == len(expected["trace"])
    for i, (g, e) in enumerate(zip(got["trace"], expected["trace"])):
        assert g == e, f"trace event {i} differs"


def test_pinned_runs_cover_the_reactions():
    """The pin really exercises what it claims: NAKs, coordinator
    placements, both trunk-fault kinds, blocked slots and recoveries."""
    data = json.loads(FIXTURE.read_text(encoding="utf-8"))
    mesh = data["mesh-tdm-faulted"]
    kinds = {kind for _, kind, _ in mesh["trace"]}
    assert {"xfer", "circuit-nak", "conn-release", "recovery-closed"} <= kinds
    assert mesh["counters"]["fault_trunk_transients"] > 0
    assert mesh["counters"]["fault_trunk_dead"] > 0
    assert mesh["counters"]["circuits_coordinated"] > 0
    assert mesh["recovery_ps"]
    tree = data["fattree-tdm"]
    assert tree["counters"]["topo_diameter"] == 3
    assert tree["counters"]["circuit_naks"] > 0


if __name__ == "__main__":
    lines = []
    for name in RUNS:
        text = json.dumps(observe(name), separators=(",", ":"))
        lines.append(json.dumps(name) + ":" + text.replace("],[", "],\n["))
    FIXTURE.write_text("{" + ",\n".join(lines) + "}\n", encoding="utf-8")
    print(f"wrote {FIXTURE}")
