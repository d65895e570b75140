"""Regression pin: a traced, faulted hybrid TDM run, event for event.

One 16-port hybrid run exercises every reaction of the per-slot transfer
at once: windowed injection (NIC feed), a Markov prefetcher (latches set
on completions), a preload batch, and transient link-down outages that
mask connections out of their slots.  Its ``RunResult`` (records, drops,
counters) and its full trace (every ``xfer`` and ``slot-transfer``
included) are committed under ``data/`` and must not change.

Regenerate the fixture only for an intended behaviour change::

    PYTHONPATH=src python tests/networks/test_tdm_pin.py
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.faults.injector import FaultInjector
from repro.faults.model import FaultKind
from repro.faults.schedule import FaultSchedule
from repro.networks.tdm import TdmNetwork
from repro.params import PAPER_PARAMS
from repro.predict.markov import MarkovPrefetcher
from repro.sim.clock import us
from repro.sim.fastpath import FastPath
from repro.sim.rng import RngStreams
from repro.sim.trace import Tracer
from repro.traffic.hybrid import HybridPattern

FIXTURE = Path(__file__).parent / "data" / "tdm_traced_faulted_pin.json"
N = 16


def build() -> tuple[TdmNetwork, Tracer]:
    schedule = FaultSchedule.generate(
        seed=11,
        rate_per_us=2.0,
        horizon_ps=us(20),
        n_ports=N,
        k=4,
        weights={FaultKind.LINK_TRANSIENT: 1.0},
        mean_transient_ps=us(1),
    )
    tracer = Tracer()
    net = TdmNetwork(
        PAPER_PARAMS.with_overrides(n_ports=N),
        k=4,
        mode="hybrid",
        k_preload=2,
        injection_window=4,
        prefetcher=MarkovPrefetcher(N, hold_ps=us(1)),
        tracer=tracer,
        faults=FaultInjector(schedule),
    )
    return net, tracer


def observe() -> dict:
    """Run the pinned workload; everything it shows, as plain JSON data."""
    net, tracer = build()
    pattern = HybridPattern(N, 256, determinism=0.5, messages_per_node=8)
    result = net.run(pattern.phases(RngStreams(5)), pattern_name=pattern.name)
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


def test_traced_faulted_run_is_pinned():
    expected = json.loads(FIXTURE.read_text(encoding="utf-8"))
    got = json.loads(json.dumps(observe()))
    for key in ("makespan_ps", "records", "drops", "counters", "recovery_ps"):
        assert got[key] == expected[key], key
    assert len(got["trace"]) == len(expected["trace"])
    for i, (g, e) in enumerate(zip(got["trace"], expected["trace"])):
        assert g == e, f"trace event {i} differs"


def test_traced_faulted_run_transfers_through_the_fast_path(monkeypatch):
    """Tracing and faults select no other transfer: every slot of the
    pinned run is selected and drained by FastPath.transfer_slot."""
    calls = []
    original = FastPath.transfer_slot

    def counting(self, *args):
        calls.append(args[1])
        return original(self, *args)

    monkeypatch.setattr(FastPath, "transfer_slot", counting)
    data = observe()
    slot_transfers = [t for t, kind, _ in data["trace"] if kind == "slot-transfer"]
    assert calls == slot_transfers
    # the run really covers what the pin claims: outages, recoveries and
    # prefetches, not just plain transfers
    kinds = {kind for _, kind, _ in data["trace"]}
    assert {"xfer", "fault-link-down", "recovery-closed"} <= kinds
    assert data["counters"]["fault_applied_link_transient"] > 0
    assert data["counters"]["prefetch_predictions"] > 0


if __name__ == "__main__":
    text = json.dumps(observe(), separators=(",", ":"))
    FIXTURE.write_text(text.replace("],[", "],\n[") + "\n", encoding="utf-8")
    print(f"wrote {FIXTURE}")
