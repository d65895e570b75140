"""Regression pins: the source side of a message under permanent faults.

Two 16-port runs over the same two phases of seeded traffic, in which
every NIC sends staggered messages to three destinations of its own, so a
NIC's script holds later messages to the destination it is sending to:

* a ``dynamic-tdm`` run with an injection window of 4 loses ports for
  good, loses SL cells and request bits, and late in the run has all four
  configuration registers stuck, so the watchdog ladder ends in give-ups.
  Messages are dropped at admission (a dead port at a phase start), from
  the VOQs and from the NICs' injection scripts, for both ``dead-link``
  and ``unrecoverable``;
* a wormhole run loses ports for good and has transient outages, so
  scripts are purged and partly launched messages are written off.

Each run's records, its drops in the order they were recorded, its
counters and its recovery latencies are committed under ``data/`` and
must not change.

Regenerate the fixtures only for an intended behaviour change::

    PYTHONPATH=src python tests/networks/test_source_side_pin.py
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

import numpy as np

from repro.faults.injector import FaultInjector
from repro.faults.model import FaultEvent, FaultKind
from repro.faults.schedule import FaultSchedule
from repro.networks.base import RunResult
from repro.networks.tdm import TdmNetwork
from repro.networks.wormhole import WormholeNetwork
from repro.nic.queues import VirtualOutputQueues
from repro.params import PAPER_PARAMS
from repro.sim.clock import us
from repro.traffic.base import TrafficPhase, assign_seq
from repro.types import Message

DATA = Path(__file__).parent / "data"
N = 16
KEYS = ("makespan_ps", "records", "drops", "counters", "recovery_ps")


def phases(seed: int = 3, per_node: int = 10) -> list[TrafficPhase]:
    """Two phases of ``per_node`` staggered sends per NIC, each NIC to
    three destinations of its own, with unique sequence numbers."""
    gen = np.random.default_rng(seed)
    out = []
    for p in range(2):
        msgs = []
        for u in range(N):
            others = [x for x in range(N) if x != u]
            dests = [int(d) for d in gen.choice(others, 3, replace=False)]
            t = 0
            for _ in range(per_node):
                t += int(gen.integers(0, 40_000))
                v = dests[int(gen.integers(0, 3))]
                size = int(gen.integers(64, 768))
                msgs.append(Message(src=u, dst=v, size=size, inject_ps=t))
        out.append(TrafficPhase(f"p{p}", msgs))
    assign_seq(out)
    return out


def run_tdm() -> RunResult:
    seeded = FaultSchedule.generate(
        seed=0,
        rate_per_us=0.25,
        horizon_ps=us(20),
        n_ports=N,
        k=4,
        weights={FaultKind.LINK_FAIL: 0.5, FaultKind.SL_DEAD: 0.3, FaultKind.REQ_DROP: 0.2},
        mean_transient_ps=us(1),
    )
    stuck = tuple(
        FaultEvent(time_ps=us(12), kind=FaultKind.REG_STUCK, slot=s) for s in range(4)
    )
    events = sorted(seeded.events + stuck, key=lambda e: e.time_ps)
    net = TdmNetwork(
        PAPER_PARAMS.with_overrides(n_ports=N),
        k=4,
        mode="dynamic",
        injection_window=4,
        faults=FaultInjector(FaultSchedule(tuple(events))),
    )
    return net.run(phases(), pattern_name="tdm-window-pin")


def run_wormhole() -> RunResult:
    schedule = FaultSchedule.generate(
        seed=0,
        rate_per_us=0.25,
        horizon_ps=us(20),
        n_ports=N,
        k=1,
        weights={FaultKind.LINK_FAIL: 0.4, FaultKind.LINK_TRANSIENT: 0.6},
        mean_transient_ps=us(1),
    )
    net = WormholeNetwork(
        PAPER_PARAMS.with_overrides(n_ports=N), faults=FaultInjector(schedule)
    )
    return net.run(phases(), pattern_name="wormhole-pin")


PINS = {"tdm_window_pin": run_tdm, "wormhole_pin": run_wormhole}


def observe(result: RunResult) -> dict:
    """Everything a pinned run shows, as plain JSON data."""
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
    }


def _check_pin(name: str) -> dict:
    expected = json.loads((DATA / f"{name}.json").read_text(encoding="utf-8"))
    got = json.loads(json.dumps(observe(PINS[name]())))
    for key in KEYS:
        assert got[key] == expected[key], key
    return got


def test_windowed_tdm_run_under_permanent_faults_is_pinned():
    _check_pin("tdm_window_pin")


def test_wormhole_run_under_permanent_faults_is_pinned():
    got = _check_pin("wormhole_pin")
    assert got["counters"]["fault_applied_link_fail"] > 0
    assert got["counters"]["fault_applied_link_transient"] > 0
    # some dropped messages had worms in flight, which the ledger writes off
    assert any(d[3] > 0 for d in got["drops"])
    assert any(d[3] == 0 for d in got["drops"])


def test_pinned_tdm_run_drops_from_the_voqs_and_from_the_scripts(monkeypatch):
    """Classify every drop by where the message was when it was dropped:
    taken out of a VOQ, never admitted (a phase start), or still waiting
    in its NIC's script."""
    enqueued: set[int] = set()
    purged: set[int] = set()
    enqueue, purge = VirtualOutputQueues.enqueue, VirtualOutputQueues.purge

    def counting_enqueue(self, msg):
        enqueued.add(msg.seq)
        return enqueue(self, msg)

    def counting_purge(self, dst=None):
        removed = purge(self, dst)
        purged.update(m.seq for m in removed)
        return removed

    monkeypatch.setattr(VirtualOutputQueues, "enqueue", counting_enqueue)
    monkeypatch.setattr(VirtualOutputQueues, "purge", counting_purge)
    result = run_tdm()
    starts = {p.start_ps for p in result.phases}
    where: Counter[tuple[str, str]] = Counter()
    for d in result.drops:
        if d.seq in purged:
            where["voq", d.reason] += 1
        elif d.seq not in enqueued and d.time_ps in starts:
            where["admission", d.reason] += 1
        else:
            assert d.seq not in enqueued
            where["script", d.reason] += 1
    for place in ("voq", "script"):
        for reason in ("dead-link", "unrecoverable"):
            assert where[place, reason] > 0, (place, reason)
    assert where["admission", "dead-link"] > 0
    assert result.counters["fault_unrecoverable_connections"] > 0


if __name__ == "__main__":
    for name, run in PINS.items():
        text = json.dumps(observe(run()), separators=(",", ":"))
        path = DATA / f"{name}.json"
        path.write_text(text.replace("],[", "],\n[") + "\n", encoding="utf-8")
        print(f"wrote {path}")
