"""Unit tests for the full scheduler, TDM counter, and priority policies."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError, SchedulingError
from repro.fabric.config import ConfigMatrix
from repro.params import PAPER_PARAMS
from repro.sched.priority import FixedPriority, RandomPriority, RoundRobinPriority
from repro.sched.scheduler import Scheduler
from repro.sim.rng import stream


@pytest.fixture
def sched():
    params = PAPER_PARAMS.with_overrides(n_ports=8)
    return Scheduler(params, k=4)


class TestSchedulerBasics:
    def test_initial_state(self, sched):
        assert sched.n == 8 and sched.k == 4
        assert not sched.registers.b_star.any()

    def test_establish_on_request(self, sched):
        sched.set_request(1, 2, True)
        result = sched.sl_pass()
        assert result.outcome.toggles
        assert sched.established_anywhere(1, 2)

    def test_release_on_request_drop(self, sched):
        sched.set_request(1, 2, True)
        result = sched.sl_pass()
        slot = result.slot
        sched.set_request(1, 2, False)
        # passes round-robin over slots; run k passes to revisit the slot
        for _ in range(sched.k):
            sched.sl_pass()
        assert not sched.established_anywhere(1, 2)

    def test_no_duplicate_across_slots(self, sched):
        sched.set_request(1, 2, True)
        for _ in range(8):
            sched.sl_pass()
        assert len(sched.registers.slots_of(1, 2)) == 1

    def test_latch_holds_connection(self, sched):
        sched.set_request(1, 2, True)
        sched.sl_pass()
        sched.set_request(1, 2, False)
        sched.latch(1, 2)
        for _ in range(8):
            sched.sl_pass()
        assert sched.established_anywhere(1, 2)
        sched.latch(1, 2, False)
        for _ in range(4):
            sched.sl_pass()
        assert not sched.established_anywhere(1, 2)

    def test_row_capacity_spreads_over_slots(self, sched):
        """One source with many destinations gets one connection per slot."""
        for v in range(5):
            sched.set_request(0, v + 1, True)
        for _ in range(8):
            sched.sl_pass()
        slots_used = {sched.registers.slot_of(0, v + 1) for v in range(5)}
        slots_used.discard(None)
        # 4 slots -> at most 4 of the 5 requests can be established
        established = [v + 1 for v in range(5) if sched.established_anywhere(0, v + 1)]
        assert len(established) == 4
        assert len(slots_used) == 4

    def test_counters(self, sched):
        sched.set_request(0, 1, True)
        sched.sl_pass()
        assert sched.counters["establishes"] == 1
        assert sched.counters["passes"] == 1


class TestPreloadAndFlush:
    def test_preload_pins(self, sched):
        cfgs = [ConfigMatrix.from_pairs(8, [(0, 1)]), ConfigMatrix.from_pairs(8, [(1, 2)])]
        sched.preload(cfgs)
        assert sched.registers.pinned == {0, 1}
        assert sched.registers.dynamic_slots() == [2, 3]

    def test_preload_too_many(self, sched):
        with pytest.raises(SchedulingError):
            sched.preload([ConfigMatrix(8)] * 5)

    def test_pass_skips_pinned(self, sched):
        sched.preload([ConfigMatrix.from_pairs(8, [(0, 1)])])
        sched.set_request(0, 1, False)  # no request for the pinned conn
        for _ in range(8):
            result = sched.sl_pass()
            assert result.slot != 0  # never schedules the pinned slot
        assert sched.established_anywhere(0, 1)  # never released

    def test_explicit_pass_on_pinned_rejected(self, sched):
        sched.preload([ConfigMatrix(8)])
        with pytest.raises(SchedulingError):
            sched.sl_pass(0)

    def test_request_covered_by_pinned_not_duplicated(self, sched):
        sched.preload([ConfigMatrix.from_pairs(8, [(0, 1)])])
        sched.set_request(0, 1, True)
        for _ in range(8):
            sched.sl_pass()
        assert sched.registers.slots_of(0, 1) == [0]

    def test_flush_clears_everything(self, sched):
        sched.preload([ConfigMatrix.from_pairs(8, [(0, 1)])])
        sched.set_request(2, 3, True)
        sched.sl_pass()
        sched.latch(4, 5)
        sched.flush()
        assert not sched.registers.b_star.any()
        assert not sched.latched.any()
        assert sched.registers.pinned == set()

    def test_all_pinned_pass_is_idle(self):
        params = PAPER_PARAMS.with_overrides(n_ports=8)
        s = Scheduler(params, k=2)
        s.preload([ConfigMatrix(8), ConfigMatrix(8)])
        result = s.sl_pass()
        assert result.slot is None and result.outcome is None


class TestTdmCounter:
    def test_skips_empty_configs(self):
        params = PAPER_PARAMS.with_overrides(n_ports=8)
        s = Scheduler(params, k=4)
        s.registers.establish(2, 0, 1)
        counter = s.tdm
        assert counter.advance() == 2
        assert counter.advance() == 2  # only one non-empty slot

    def test_all_empty_returns_none(self):
        params = PAPER_PARAMS.with_overrides(n_ports=8)
        s = Scheduler(params, k=4)
        assert s.tdm.advance() is None
        assert s.tdm.idle_ticks == 1

    def test_cycles_active_slots(self):
        params = PAPER_PARAMS.with_overrides(n_ports=8)
        s = Scheduler(params, k=4)
        s.registers.establish(1, 0, 1)
        s.registers.establish(3, 2, 3)
        seq = [s.tdm.advance() for _ in range(4)]
        assert seq == [1, 3, 1, 3]

    def test_pending_filter_skips_idle_configs(self):
        params = PAPER_PARAMS.with_overrides(n_ports=8)
        s = Scheduler(params, k=4)
        s.registers.establish(0, 0, 1)
        s.registers.establish(1, 2, 3)
        pending = np.zeros((8, 8), dtype=bool)
        pending[2, 3] = True  # only slot 1's connection has traffic
        assert s.tdm.advance(pending) == 1
        assert s.tdm.advance(pending) == 1

    def test_pending_filter_none_match(self):
        params = PAPER_PARAMS.with_overrides(n_ports=8)
        s = Scheduler(params, k=2)
        s.registers.establish(0, 0, 1)
        pending = np.zeros((8, 8), dtype=bool)
        assert s.tdm.advance(pending) is None


class TestPriorityPolicies:
    def test_fixed(self):
        p = FixedPriority(8, 3, 5)
        assert p.next_rotation() == (3, 5)
        assert p.next_rotation() == (3, 5)

    def test_fixed_out_of_range(self):
        with pytest.raises(ConfigurationError):
            FixedPriority(8, 8, 0)

    def test_round_robin_advances(self):
        p = RoundRobinPriority(4)
        assert p.next_rotation() == (0, 0)
        assert p.next_rotation() == (1, 1)
        p.reset()
        assert p.next_rotation() == (0, 0)

    def test_round_robin_wraps(self):
        p = RoundRobinPriority(2)
        p.next_rotation()
        p.next_rotation()
        assert p.next_rotation() == (0, 0)

    def test_random_in_range_and_seeded(self):
        a = RandomPriority(8, stream(1, "p"))
        b = RandomPriority(8, stream(1, "p"))
        seq_a = [a.next_rotation() for _ in range(10)]
        seq_b = [b.next_rotation() for _ in range(10)]
        assert seq_a == seq_b
        assert all(0 <= x < 8 and 0 <= y < 8 for x, y in seq_a)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: FixedPriority(8, 3, 5),
            lambda: RoundRobinPriority(5),
            lambda: RandomPriority(8, stream(7, "p")),
        ],
        ids=["fixed", "round-robin", "random"],
    )
    def test_advance_matches_discarded_rotations(self, make):
        """advance(k) must leave the policy exactly where k discarded
        next_rotation() calls would — the fast path's bulk SL passes
        depend on this for every policy, including the rng stream of
        RandomPriority."""
        bulk, loop = make(), make()
        for k in (0, 1, 3, 11):
            bulk.advance(k)
            for _ in range(k):
                loop.next_rotation()
            assert [bulk.next_rotation() for _ in range(3)] == [
                loop.next_rotation() for _ in range(3)
            ]
