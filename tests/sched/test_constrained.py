"""Unit and property tests for the constrained (non-crossbar) scheduler."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.fabric.config import ConfigMatrix
from repro.fabric.multistage import OmegaNetwork
from repro.params import PAPER_PARAMS
from repro.sched.constrained import ConstrainedScheduler, partition
from repro.sched.priority import FixedPriority
from repro.sched.scheduler import Scheduler
from repro.topo import binary_fat_tree

N = 8
PARAMS = PAPER_PARAMS.with_overrides(n_ports=N)


class _AlwaysRealizable:
    def is_realizable(self, config: ConfigMatrix) -> bool:
        return True


class _NeverRealizable:
    def is_realizable(self, config: ConfigMatrix) -> bool:
        return len(config) == 0


class TestBasics:
    def test_establish_under_permissive_constraint(self):
        s = ConstrainedScheduler(PARAMS, k=2, constraint=_AlwaysRealizable())
        s.set_request(0, 1, True)
        result = s.sl_pass()
        assert result.outcome.toggles
        assert s.established_anywhere(0, 1)

    def test_vetoed_establish_is_blocked(self):
        s = ConstrainedScheduler(PARAMS, k=2, constraint=_NeverRealizable())
        s.set_request(0, 1, True)
        result = s.sl_pass()
        assert not result.outcome.toggles
        assert result.outcome.blocked == 1
        assert s.counters["blocked_by_fabric"] == 1
        assert not s.established_anywhere(0, 1)

    def test_veto_leaves_registers_clean(self):
        s = ConstrainedScheduler(PARAMS, k=2, constraint=_NeverRealizable())
        s.set_request(0, 1, True)
        s.sl_pass()
        s.registers.check_invariants()
        assert not s.registers.b_star.any()

    def test_release_always_allowed(self):
        s = ConstrainedScheduler(PARAMS, k=2, constraint=_AlwaysRealizable())
        s.set_request(0, 1, True)
        s.sl_pass()
        s.set_request(0, 1, False)
        s.constraint = _NeverRealizable()  # even a hostile fabric
        for _ in range(2):
            s.sl_pass()
        assert not s.established_anywhere(0, 1)


class TestFabricConstraints:
    def test_fat_tree_capacity_respected(self):
        ft = binary_fat_tree(N, taper=N)  # capacity 1 on every trunk
        s = ConstrainedScheduler(PARAMS, k=1, constraint=ft)
        # two cross-tree connections leaving the {0,1} subtree upward
        s.set_request(0, 4, True)
        s.set_request(1, 5, True)
        s.sl_pass(0)
        established = [
            (u, v) for (u, v) in [(0, 4), (1, 5)] if s.established_anywhere(u, v)
        ]
        assert len(established) == 1  # the second violates the edge capacity
        assert s.counters["blocked_by_fabric"] == 1

    def test_omega_conflicts_respected(self):
        om = OmegaNetwork(N)
        s = ConstrainedScheduler(PARAMS, k=1, constraint=om)
        for u in range(N):
            for v in range(N):
                if u != v:
                    s.set_request(u, v, True)
        s.sl_pass(0)
        # whatever got established must be realisable on the Omega network
        assert om.is_realizable(s.registers[0])

    def test_blocked_requests_served_across_slots(self):
        ft = binary_fat_tree(N, taper=N)
        s = ConstrainedScheduler(PARAMS, k=2, constraint=ft)
        s.set_request(0, 4, True)
        s.set_request(1, 5, True)
        for _ in range(4):
            s.sl_pass()
        # both connections live, in different slots
        assert s.established_anywhere(0, 4)
        assert s.established_anywhere(1, 5)
        assert s.registers.slot_of(0, 4) != s.registers.slot_of(1, 5)

    def test_partition_refuses_a_connection_no_pass_can_hold(self):
        """A connection the fabric rejects even alone raises instead of
        opening empty passes forever."""
        cfg = ConfigMatrix.from_pairs(N, [(0, 1)])
        with pytest.raises(ConfigurationError):
            partition(_NeverRealizable(), cfg)


@st.composite
def request_streams(draw):
    steps = draw(
        st.lists(
            st.tuples(
                st.integers(0, N - 1), st.integers(0, N - 1), st.booleans()
            ),
            max_size=30,
        )
    )
    return steps


@settings(max_examples=80, deadline=None)
@given(request_streams())
def test_permissive_constraint_matches_sl_array(steps):
    """With a trivially-true constraint and the same rotation, the
    constrained scheduler produces the same configurations as the SL
    array scheduler over any request evolution."""
    a = Scheduler(PARAMS, k=3, rotation=FixedPriority(N))
    b = ConstrainedScheduler(
        PARAMS, k=3, constraint=_AlwaysRealizable(), rotation=FixedPriority(N)
    )
    for u, v, val in steps:
        a.set_request(u, v, val)
        b.set_request(u, v, val)
        a.sl_pass()
        b.sl_pass()
        for slot in range(3):
            assert np.array_equal(a.registers[slot].b, b.registers[slot].b)
    a.registers.check_invariants()
    b.registers.check_invariants()


def test_explicit_pass_on_pinned_rejected():
    from repro.errors import SchedulingError

    s = ConstrainedScheduler(PARAMS, k=2, constraint=_AlwaysRealizable())
    s.registers.load(0, ConfigMatrix(N), pin=True)
    with pytest.raises(SchedulingError):
        s.sl_pass(0)
