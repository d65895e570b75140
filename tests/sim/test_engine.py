"""Unit tests for the discrete-event kernel."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Priority, Simulator


class TestScheduling:
    def test_runs_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(30, order.append, "c")
        sim.schedule(10, order.append, "a")
        sim.schedule(20, order.append, "b")
        sim.run()
        assert order == ["a", "b", "c"]

    def test_now_advances(self):
        sim = Simulator()
        times = []
        sim.schedule(5, lambda: times.append(sim.now))
        sim.schedule(15, lambda: times.append(sim.now))
        sim.run()
        assert times == [5, 15]

    def test_priority_breaks_ties(self):
        sim = Simulator()
        order = []
        sim.schedule(10, order.append, "default", priority=Priority.DEFAULT)
        sim.schedule(10, order.append, "fabric", priority=Priority.FABRIC)
        sim.schedule(10, order.append, "wire", priority=Priority.WIRE)
        sim.run()
        assert order == ["fabric", "wire", "default"]

    def test_insertion_order_breaks_remaining_ties(self):
        sim = Simulator()
        order = []
        sim.schedule(10, order.append, 1)
        sim.schedule(10, order.append, 2)
        sim.run()
        assert order == [1, 2]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1, lambda: None)

    def test_schedule_at_past_rejected(self):
        sim = Simulator()
        sim.schedule(100, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(50, lambda: None)

    def test_nested_scheduling(self):
        sim = Simulator()
        hits = []

        def outer():
            hits.append(("outer", sim.now))
            sim.schedule(7, inner)

        def inner():
            hits.append(("inner", sim.now))

        sim.schedule(3, outer)
        sim.run()
        assert hits == [("outer", 3), ("inner", 10)]


class TestCancellation:
    def test_cancelled_event_skipped(self):
        sim = Simulator()
        hits = []
        ev = sim.schedule(10, hits.append, "x")
        ev.cancel()
        sim.run()
        assert hits == []

    def test_cancel_twice_is_safe(self):
        sim = Simulator()
        ev = sim.schedule(10, lambda: None)
        ev.cancel()
        ev.cancel()
        sim.run()

    def test_cancel_one_of_many(self):
        sim = Simulator()
        hits = []
        sim.schedule(10, hits.append, "keep")
        ev = sim.schedule(10, hits.append, "drop")
        ev.cancel()
        sim.run()
        assert hits == ["keep"]


class TestRunControls:
    def test_stop_ends_loop(self):
        sim = Simulator()
        hits = []
        sim.schedule(10, lambda: (hits.append(1), sim.stop()))
        sim.schedule(20, hits.append, 2)
        sim.run()
        assert hits == [1]

    def test_resume_after_stop(self):
        sim = Simulator()
        hits = []
        sim.schedule(10, lambda: (hits.append("a"), sim.stop()))
        sim.schedule(20, hits.append, "b")
        sim.run()
        assert len(hits) == 1
        sim.run()
        assert hits[-1] == "b"

    def test_until_horizon(self):
        sim = Simulator()
        hits = []
        sim.schedule(10, hits.append, "early")
        sim.schedule(100, hits.append, "late")
        sim.run(until=50)
        assert hits == ["early"]
        assert sim.now == 50
        sim.run()
        assert hits == ["early", "late"]

    def test_max_events_raises(self):
        sim = Simulator()

        def loop():
            sim.schedule(1, loop)

        sim.schedule(1, loop)
        with pytest.raises(SimulationError):
            sim.run(max_events=100)

    def test_events_executed_counter(self):
        sim = Simulator()
        for i in range(5):
            sim.schedule(i, lambda: None)
        sim.run()
        assert sim.events_executed == 5


class TestHeapCompaction:
    def test_pending_counts_live_events_only(self):
        sim = Simulator()
        events = [sim.schedule(10 + i, lambda: None) for i in range(10)]
        for ev in events[:4]:
            ev.cancel()
        assert sim.pending == 6

    def test_cancel_heavy_heap_is_compacted(self):
        sim = Simulator()
        events = [sim.schedule(10 + i, lambda: None) for i in range(1000)]
        for ev in events[:800]:
            ev.cancel()
        # more than half the heap was cancelled debris: it must have shrunk
        assert len(sim._heap) <= 400
        assert sim.pending == 200
        sim.run()
        assert sim.events_executed == 200

    def test_compaction_preserves_order(self):
        sim = Simulator()
        hits = []
        keep = []
        for i in range(200):
            ev = sim.schedule(1000 - i, hits.append, 1000 - i)
            if i % 2:
                keep.append(ev)
            else:
                ev.cancel()
        sim.run()
        assert hits == sorted(hits)
        assert len(hits) == 100

    def test_executed_events_do_not_count_as_cancelled(self):
        sim = Simulator()
        for i in range(10):
            sim.schedule(i, lambda: None)
        sim.run()
        assert sim.events_cancelled == 0
        assert sim.pending == 0


class TestPerfCounters:
    def test_counters_after_run(self):
        sim = Simulator()
        for i in range(8):
            sim.schedule(i, lambda: None)
        ev = sim.schedule(100, lambda: None)
        ev.cancel()
        sim.run()
        perf = sim.perf_counters()
        assert perf["events_executed"] == 8
        assert perf["events_scheduled"] == 9
        assert perf["events_cancelled"] == 1
        assert perf["heap_high_water"] == 9
        assert perf["pending"] == 0
        assert perf["run_wall_s"] >= 0.0
        assert 0.0 < perf["cancelled_ratio"] < 1.0

    def test_events_per_sec_positive_after_work(self):
        sim = Simulator()
        state = {"n": 0}

        def tick():
            state["n"] += 1
            if state["n"] < 1000:
                sim.schedule(1, tick)

        sim.schedule(0, tick)
        sim.run()
        assert sim.perf_counters()["events_per_sec"] > 0
