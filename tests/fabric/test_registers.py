"""Unit tests for the configuration register file (B* maintenance)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigurationError, SchedulingError
from repro.fabric.config import ConfigMatrix
from repro.fabric.registers import ConfigRegisterFile


class TestBasics:
    def test_construction(self):
        regs = ConfigRegisterFile(4, 3)
        assert regs.k == 3
        assert not regs.b_star.any()

    def test_bad_k(self):
        with pytest.raises(ConfigurationError):
            ConfigRegisterFile(4, 0)

    def test_slot_range_checked(self):
        regs = ConfigRegisterFile(4, 2)
        with pytest.raises(SchedulingError):
            regs.establish(2, 0, 1)
        with pytest.raises(SchedulingError):
            _ = regs[5]

    def test_establish_updates_bstar(self):
        regs = ConfigRegisterFile(4, 2)
        regs.establish(0, 1, 2)
        assert regs.b_star[1, 2]
        assert regs.slot_of(1, 2) == 0

    def test_release_updates_bstar(self):
        regs = ConfigRegisterFile(4, 2)
        regs.establish(0, 1, 2)
        regs.release(0, 1, 2)
        assert not regs.b_star[1, 2]
        assert regs.slot_of(1, 2) is None

    def test_same_connection_two_slots(self):
        """The multi-slot extension: B* counts both instances."""
        regs = ConfigRegisterFile(4, 2)
        regs.establish(0, 1, 2)
        regs.establish(1, 1, 2)
        assert regs.b_star[1, 2]
        assert regs.slots_of(1, 2) == [0, 1]
        regs.release(0, 1, 2)
        assert regs.b_star[1, 2]  # still present in slot 1
        regs.release(1, 1, 2)
        assert not regs.b_star[1, 2]

    def test_toggle(self):
        regs = ConfigRegisterFile(4, 2)
        assert regs.toggle(0, 1, 2) is True
        assert regs.toggle(0, 1, 2) is False
        assert not regs.b_star[1, 2]


class TestLoadAndPin:
    def test_load_replaces_and_counts(self):
        regs = ConfigRegisterFile(4, 2)
        regs.establish(0, 0, 1)
        cfg = ConfigMatrix.from_pairs(4, [(2, 3)])
        regs.load(0, cfg)
        assert not regs.b_star[0, 1]
        assert regs.b_star[2, 3]
        regs.check_invariants()

    def test_pin_and_dynamic_slots(self):
        regs = ConfigRegisterFile(4, 3)
        regs.load(0, ConfigMatrix.from_pairs(4, [(0, 1)]), pin=True)
        assert regs.pinned == {0}
        assert regs.dynamic_slots() == [1, 2]

    def test_load_unpinned_clears_pin(self):
        regs = ConfigRegisterFile(4, 2)
        regs.load(0, ConfigMatrix(4), pin=True)
        regs.load(0, ConfigMatrix(4), pin=False)
        assert regs.pinned == set()

    def test_clear_slot(self):
        regs = ConfigRegisterFile(4, 2)
        regs.load(1, ConfigMatrix.from_pairs(4, [(0, 1)]), pin=True)
        regs.clear_slot(1)
        assert regs[1].is_empty
        assert 1 not in regs.pinned
        assert not regs.b_star.any()

    def test_flush(self):
        regs = ConfigRegisterFile(4, 3)
        regs.establish(0, 0, 1)
        regs.load(1, ConfigMatrix.from_pairs(4, [(2, 3)]), pin=True)
        regs.flush()
        assert not regs.b_star.any()
        assert regs.pinned == set()
        assert regs.active_slots() == []


class TestQueries:
    def test_active_slots(self):
        regs = ConfigRegisterFile(4, 3)
        regs.establish(2, 0, 1)
        assert regs.active_slots() == [2]

    def test_presence_counts_copy(self):
        regs = ConfigRegisterFile(4, 2)
        regs.establish(0, 0, 1)
        counts = regs.presence_counts()
        counts[0, 1] = 9
        assert regs.presence_counts()[0, 1] == 1


@given(
    st.lists(
        st.tuples(st.integers(0, 2), st.integers(0, 5), st.integers(0, 5)),
        max_size=40,
    )
)
def test_bstar_always_matches_slots(ops):
    """Property: B* == OR of slot matrices after any toggle sequence."""
    regs = ConfigRegisterFile(6, 3)
    for slot, u, v in ops:
        cfg = regs[slot]
        if cfg.b[u, v] or (cfg.output_of(u) is None and cfg.input_of(v) is None):
            regs.toggle(slot, u, v)
    regs.check_invariants()
    expected = np.zeros((6, 6), dtype=bool)
    for cfg in regs:
        expected |= cfg.b
    assert np.array_equal(regs.b_star, expected)
