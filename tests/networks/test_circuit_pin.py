"""Regression pin: a traced, faulted circuit-switching run, event for event.

One 16-port ``CircuitNetwork`` run over two phases of seeded traffic is
hit by every fault kind a single-slot scheduler reacts to: transient and
permanent link failures, lost request bits, dead SL cells, and stuck and
corrupted configuration registers.  Together they exercise the circuit
reuse path, link-blocked NICs resuming on link-up, the watchdog ladder
(retry, management remap, give-up) and dead-port drops.  The run's
``RunResult`` (records, drops, counters, recovery latencies) and its full
trace are committed under ``data/`` and must not change.

Regenerate the fixture only for an intended behaviour change::

    PYTHONPATH=src python tests/networks/test_circuit_pin.py
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.faults.injector import FaultInjector
from repro.faults.model import FaultEvent, FaultKind
from repro.faults.schedule import FaultSchedule
from repro.networks.circuit import CircuitNetwork
from repro.params import PAPER_PARAMS
from repro.sim.clock import us
from repro.sim.trace import Tracer
from repro.traffic.base import TrafficPhase, assign_seq
from repro.types import Message

FIXTURE = Path(__file__).parent / "data" / "circuit_pin.json"
N = 16

#: the seeded fault kinds, weighted so each one lands several times.  A
#: stuck register is appended by hand late in the run instead: once its
#: single slot is quarantined no management remap can succeed, and the pin
#: must cover successful remaps too.
WEIGHTS = {
    FaultKind.LINK_TRANSIENT: 0.3,
    FaultKind.LINK_FAIL: 0.15,
    FaultKind.REQ_DROP: 0.25,
    FaultKind.SL_DEAD: 0.2,
    FaultKind.REG_CORRUPT: 0.15,
}


def _phases(seed: int, per_phase: int = 96) -> list[TrafficPhase]:
    """Two phases of seeded point-to-point sends with staggered injection and
    unique sequence numbers; runs of repeated destinations exercise circuit
    reuse."""
    gen = np.random.default_rng(seed)
    phases = []
    for p in range(2):
        msgs, t = [], 0
        last = {}
        for _ in range(per_phase):
            u = int(gen.integers(0, N))
            if u in last and gen.random() < 0.4:
                v = last[u]
            else:
                v = int(gen.integers(0, N - 1))
                if v >= u:
                    v += 1
            last[u] = v
            t += int(gen.integers(0, 60_000))
            size = int(gen.integers(32, 512))
            msgs.append(Message(src=u, dst=v, size=size, inject_ps=t))
        phases.append(TrafficPhase(f"p{p}", msgs))
    assign_seq(phases)
    return phases


def build() -> tuple[CircuitNetwork, Tracer]:
    seeded = FaultSchedule.generate(
        seed=145,
        rate_per_us=2.0,
        horizon_ps=us(12),
        n_ports=N,
        k=1,
        weights=WEIGHTS,
        mean_transient_ps=us(1),
    )
    stuck = FaultEvent(time_ps=us(60), kind=FaultKind.REG_STUCK, slot=0)
    schedule = FaultSchedule(seeded.events + (stuck,))
    tracer = Tracer()
    net = CircuitNetwork(
        PAPER_PARAMS.with_overrides(n_ports=N),
        tracer=tracer,
        faults=FaultInjector(schedule),
    )
    return net, tracer


def observe() -> dict:
    """Run the pinned workload; everything it shows, as plain JSON data."""
    net, tracer = build()
    result = net.run(_phases(3), pattern_name="circuit-pin")
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


def test_traced_faulted_circuit_run_is_pinned():
    expected = json.loads(FIXTURE.read_text(encoding="utf-8"))
    got = json.loads(json.dumps(observe()))
    for key in ("makespan_ps", "records", "drops", "counters", "recovery_ps"):
        assert got[key] == expected[key], key
    assert len(got["trace"]) == len(expected["trace"])
    for i, (g, e) in enumerate(zip(got["trace"], expected["trace"])):
        assert g == e, f"trace event {i} differs"


def test_pinned_circuit_run_covers_the_recovery_paths():
    """The run really reaches what the pin claims, not just plain sends."""
    data = json.loads(FIXTURE.read_text(encoding="utf-8"))
    counters = data["counters"]
    for kind in (
        "link_transient",
        "link_fail",
        "req_drop",
        "sl_dead",
        "reg_corrupt",
        "reg_stuck",
    ):
        assert counters[f"fault_applied_{kind}"] > 0, kind
    assert counters["fault_request_retries"] > 0
    assert counters["fault_mgmt_attempts"] > 0
    reasons = {d[6] for d in data["drops"]}
    assert {"dead-link", "unrecoverable"} <= reasons
    kinds = {kind for _, kind, _ in data["trace"]}
    assert {"circuit-tx", "req-rise", "req-drop", "mgmt-remap"} <= kinds
    assert any(p.get("reused") for _, kind, p in data["trace"] if kind == "circuit-tx")


@pytest.mark.parametrize("seed", range(30))
def test_watchdog_follows_the_head_when_seqs_repeat(seed):
    """Regression: a watch is keyed on the head-of-line message itself, not
    on its ``seq``.  With every seq left at 0, a watch armed for an earlier
    head (u -> v1) used to look current after the head moved on (u -> v2):
    the new head was never watched and the run spun until the wall-clock
    watchdog, or the old watch gave up on the wrong destination."""
    phases = _phases(3)
    for phase in phases:
        for msg in phase.messages:
            msg.seq = 0
    schedule = FaultSchedule.generate(
        seed=seed,
        rate_per_us=2.0,
        horizon_ps=us(12),
        n_ports=N,
        k=1,
        weights=WEIGHTS,
        mean_transient_ps=us(1),
    )
    net = CircuitNetwork(
        PAPER_PARAMS.with_overrides(n_ports=N),
        faults=FaultInjector(schedule),
        max_wall_s=10.0,
    )
    result = net.run(phases, pattern_name="circuit-pin")
    sent = sum(len(phase.messages) for phase in phases)
    assert len(result.records) + len(result.drops) == sent


if __name__ == "__main__":
    text = json.dumps(observe(), separators=(",", ":"))
    FIXTURE.write_text(text.replace("],[", "],\n[") + "\n", encoding="utf-8")
    print(f"wrote {FIXTURE}")
