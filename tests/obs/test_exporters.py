"""Exporter tests: span derivation, JSONL/CSV round-trips, Chrome traces.

The synthetic-event tests pin the span-pairing semantics; the end-to-end
tests run real schemes and check **event conservation** — every message
the run accounts for appears in the trace exactly once.
"""

from __future__ import annotations

import json

import pytest

from repro.experiments.common import DEFAULT_SEED
from repro.experiments.figure4 import figure4_patterns
from repro.networks.registry import RunSpec, build_network
from repro.obs import (
    Kind,
    TracedRun,
    derive_spans,
    from_jsonl,
    to_chrome_trace,
    to_csv,
    to_jsonl,
)
from repro.sim.rng import RngStreams
from repro.sim.trace import TraceEvent, Tracer


def ev(t, kind, **payload):
    return TraceEvent(t, kind, payload)


def traced_run(params, scheme, size=64, seed=DEFAULT_SEED):
    """Run one scheme traced; returns (tracer, RunResult)."""
    tracer = Tracer()
    net = build_network(RunSpec(scheme, params, tracer=tracer))
    pattern = figure4_patterns(params)["random-mesh"](size)
    result = net.run(pattern.phases(RngStreams(seed)), pattern.name)
    return tracer, result


class TestDeriveSpans:
    def test_message_span_closed_by_deliver(self):
        spans = derive_spans(
            [
                ev(100, Kind.MSG_INJECT, src=0, dst=1, size=64, seq=7),
                ev(900, Kind.DELIVER, src=0, dst=1, size=64, seq=7),
            ]
        )
        (s,) = spans
        assert s.name == "message" and not s.open
        assert (s.start_ps, s.end_ps, s.duration_ps) == (100, 900, 800)
        assert s.args["end"] == Kind.DELIVER and s.args["seq"] == 7

    def test_drop_also_closes_message(self):
        spans = derive_spans(
            [
                ev(0, Kind.MSG_INJECT, src=2, dst=3, size=8, seq=0),
                ev(50, Kind.DROP, src=2, dst=3, size=8, seq=0),
            ]
        )
        assert spans[0].args["end"] == Kind.DROP and not spans[0].open

    def test_seq_is_part_of_message_identity(self):
        # two in-flight messages on the same (src, dst) pair nest correctly
        spans = derive_spans(
            [
                ev(0, Kind.MSG_INJECT, src=0, dst=1, size=8, seq=0),
                ev(10, Kind.MSG_INJECT, src=0, dst=1, size=8, seq=1),
                ev(20, Kind.DELIVER, src=0, dst=1, size=8, seq=0),
                ev(30, Kind.DELIVER, src=0, dst=1, size=8, seq=1),
            ]
        )
        assert [(s.start_ps, s.end_ps) for s in spans] == [(0, 20), (10, 30)]

    def test_unclosed_span_flagged_open_at_last_timestamp(self):
        spans = derive_spans(
            [
                ev(5, Kind.CONN_ESTABLISH, src=1, dst=2, slot=0),
                ev(80, Kind.SL_PASS, slot=0, toggles=0, blocked=0),
            ]
        )
        (s,) = spans
        assert s.open and s.end_ps == 80

    def test_reopen_keeps_original_start(self):
        spans = derive_spans(
            [
                ev(10, Kind.CONN_ESTABLISH, src=0, dst=1, slot=0),
                ev(20, Kind.CONN_ESTABLISH, src=0, dst=1, slot=0),
                ev(30, Kind.CONN_RELEASE, src=0, dst=1, slot=0),
            ]
        )
        (s,) = spans
        assert (s.start_ps, s.end_ps) == (10, 30)

    def test_end_without_begin_is_ignored(self):
        assert derive_spans([ev(10, Kind.DELIVER, src=0, dst=1, seq=0)]) == []

    def test_spans_sorted_by_start(self):
        spans = derive_spans(
            [
                ev(50, Kind.MSG_INJECT, src=1, dst=0, size=8, seq=0),
                ev(0, Kind.CONN_ESTABLISH, src=0, dst=1, slot=0),
                ev(60, Kind.DELIVER, src=1, dst=0, size=8, seq=0),
                ev(70, Kind.CONN_RELEASE, src=0, dst=1, slot=0),
            ]
        )
        assert [s.start_ps for s in spans] == sorted(s.start_ps for s in spans)


class TestJsonl:
    def test_round_trip_preserves_events(self, tmp_path):
        events = [
            ev(0, Kind.MSG_INJECT, src=0, dst=1, size=64, seq=0),
            ev(123, Kind.XFER, src=0, dst=1, bytes=64, slot=2),
            ev(999, Kind.DELIVER, src=0, dst=1, size=64, seq=0),
        ]
        path = tmp_path / "t.jsonl"
        assert to_jsonl(events, path, label="demo") == 3
        back = from_jsonl(path)
        assert list(back) == ["demo"]
        assert back["demo"] == events

    def test_multi_run_labels_kept_separate(self, tmp_path):
        runs = [
            TracedRun("a", [ev(1, Kind.SL_PASS, slot=0, toggles=0, blocked=0)]),
            TracedRun("b", [ev(2, Kind.SL_PASS, slot=1, toggles=1, blocked=0)]),
        ]
        path = tmp_path / "t.jsonl"
        assert to_jsonl(runs, path) == 2
        back = from_jsonl(path)
        assert sorted(back) == ["a", "b"]
        assert back["a"][0].payload["slot"] == 0
        assert back["b"][0].payload["slot"] == 1

    def test_accepts_a_tracer_directly(self, tmp_path):
        tracer = Tracer()
        tracer.record(5, Kind.REQ_RISE, src=3, dst=4)
        path = tmp_path / "t.jsonl"
        assert to_jsonl(tracer, path, label="x") == 1
        assert from_jsonl(path)["x"][0].kind == Kind.REQ_RISE


class TestCsv:
    def test_header_is_union_of_payload_keys(self, tmp_path):
        events = [
            ev(0, Kind.REQ_RISE, src=0, dst=1),
            ev(1, Kind.SLOT_TRANSFER, slot=2, conns=1, bytes=80),
        ]
        path = tmp_path / "t.csv"
        assert to_csv(events, path) == 2
        lines = path.read_text().splitlines()
        assert lines[0] == "time_ps,kind,run,bytes,conns,dst,slot,src"
        assert lines[1] == "0,req-rise,run,,,1,,0"
        assert lines[2] == "1,slot-transfer,run,80,1,,2,"


class TestChromeTrace:
    def test_structure_and_counts(self, tmp_path):
        events = [
            ev(0, Kind.MSG_INJECT, src=0, dst=1, size=64, seq=0),
            ev(1_000_000, Kind.SL_PASS, slot=0, toggles=1, blocked=0),
            ev(2_000_000, Kind.SLOT_TRANSFER, slot=3, conns=1, bytes=80),
            ev(3_000_000, Kind.DELIVER, src=0, dst=1, size=64, seq=0),
        ]
        path = tmp_path / "t.json"
        counts = to_chrome_trace(events, path, label="demo")
        assert counts == {"runs": 1, "spans": 1, "instants": 2}
        doc = json.loads(path.read_text())
        assert doc["displayTimeUnit"] == "ns"
        by_ph = {}
        for entry in doc["traceEvents"]:
            by_ph.setdefault(entry["ph"], []).append(entry)
        # process metadata names the run
        procs = [m for m in by_ph["M"] if m["name"] == "process_name"]
        assert procs[0]["args"]["name"] == "demo"
        # the message span: ps -> us conversion
        (span,) = by_ph["X"]
        assert span["name"] == "message 0->1"
        assert span["ts"] == 0.0 and span["dur"] == 3.0
        # instants route to their threads: scheduler=900, slot 3 -> 1003
        tids = {i["name"]: i["tid"] for i in by_ph["i"]}
        assert tids[Kind.SL_PASS] == 900
        assert tids[Kind.SLOT_TRANSFER] == 1003
        thread_names = {
            m["tid"]: m["args"]["name"]
            for m in by_ph["M"]
            if m["name"] == "thread_name"
        }
        assert thread_names[900] == "scheduler"
        assert thread_names[1003] == "slot 3"
        assert thread_names[0] == "port 0"

    def test_multi_run_gets_one_process_each(self, tmp_path):
        runs = [
            TracedRun("wormhole", [ev(0, Kind.WORM_GRANTED, src=0, dst=1, bytes=8)]),
            TracedRun("circuit", [ev(0, Kind.CIRCUIT_TX, src=0, dst=1, bytes=8, reused=False)]),
        ]
        path = tmp_path / "t.json"
        counts = to_chrome_trace(runs, path)
        assert counts["runs"] == 2
        doc = json.loads(path.read_text())
        pids = {
            m["args"]["name"]: m["pid"]
            for m in doc["traceEvents"]
            if m["ph"] == "M" and m["name"] == "process_name"
        }
        assert pids == {"wormhole": 1, "circuit": 2}


@pytest.mark.parametrize(
    "scheme", ["wormhole", "circuit", "dynamic-tdm", "preload"]
)
class TestEventConservation:
    """Real runs: the trace accounts for every message the result reports."""

    def test_inject_deliver_and_spans_balance(self, params8, scheme, tmp_path):
        tracer, result = traced_run(params8, scheme)
        counts = tracer.kind_counts
        # healthy run: every injected message is delivered, none dropped
        assert counts[Kind.MSG_INJECT] == len(result.records)
        assert counts[Kind.DELIVER] == len(result.records)
        assert Kind.DROP not in counts
        events = list(tracer.events())
        messages = [s for s in derive_spans(events) if s.name == "message"]
        assert len(messages) == len(result.records)
        assert all(not s.open for s in messages)
        assert all(s.duration_ps > 0 for s in messages)
        # ... and the chrome export carries exactly those spans
        run = TracedRun(scheme, events, dict(result.counters))
        chrome = to_chrome_trace([run], tmp_path / "t.json")
        assert chrome["spans"] >= len(messages)

    def test_jsonl_round_trip_on_real_run(self, params8, scheme, tmp_path):
        tracer, _ = traced_run(params8, scheme)
        events = list(tracer.events())
        path = tmp_path / "run.jsonl"
        assert to_jsonl(events, path, label=scheme) == len(events)
        assert from_jsonl(path)[scheme] == events


def test_schemes_share_identical_workload(params8):
    """The trace CLI promise: every scheme sees byte-identical traffic."""
    injected = {}
    for scheme in ("wormhole", "dynamic-tdm"):
        tracer, _ = traced_run(params8, scheme)
        injected[scheme] = sorted(
            (e.payload["src"], e.payload["dst"], e.payload["size"])
            for e in tracer.events(Kind.MSG_INJECT)
        )
    assert injected["wormhole"] == injected["dynamic-tdm"]
