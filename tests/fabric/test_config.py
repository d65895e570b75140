"""Unit and property tests for ConfigMatrix."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.fabric.config import ConfigMatrix


class TestConstruction:
    def test_empty(self):
        cfg = ConfigMatrix(4)
        assert cfg.is_empty
        assert len(cfg) == 0

    def test_zero_ports_rejected(self):
        with pytest.raises(ConfigurationError):
            ConfigMatrix(0)

    def test_from_pairs(self):
        cfg = ConfigMatrix.from_pairs(4, [(0, 1), (2, 3)])
        assert (0, 1) in cfg and (2, 3) in cfg
        assert len(cfg) == 2

    def test_from_pairs_conflict_rejected(self):
        with pytest.raises(ConfigurationError):
            ConfigMatrix.from_pairs(4, [(0, 1), (0, 2)])
        with pytest.raises(ConfigurationError):
            ConfigMatrix.from_pairs(4, [(0, 1), (2, 1)])

    def test_from_permutation(self):
        cfg = ConfigMatrix.from_permutation([1, 0, 3, 2])
        assert len(cfg) == 4
        assert cfg.output_of(0) == 1 and cfg.output_of(3) == 2

    def test_from_partial_permutation(self):
        cfg = ConfigMatrix.from_permutation([2, -1, 0, -1])
        assert len(cfg) == 2
        assert cfg.output_of(1) is None


class TestMutation:
    def test_establish_release(self):
        cfg = ConfigMatrix(4)
        cfg.establish(1, 2)
        assert (1, 2) in cfg
        cfg.release(1, 2)
        assert (1, 2) not in cfg
        assert cfg.is_empty

    def test_establish_busy_input(self):
        cfg = ConfigMatrix(4)
        cfg.establish(1, 2)
        with pytest.raises(ConfigurationError):
            cfg.establish(1, 3)

    def test_establish_busy_output(self):
        cfg = ConfigMatrix(4)
        cfg.establish(1, 2)
        with pytest.raises(ConfigurationError):
            cfg.establish(0, 2)

    def test_release_missing(self):
        with pytest.raises(ConfigurationError):
            ConfigMatrix(4).release(0, 0)

    def test_out_of_range(self):
        with pytest.raises(ConfigurationError):
            ConfigMatrix(4).establish(0, 4)

    def test_toggle(self):
        cfg = ConfigMatrix(4)
        assert cfg.toggle(0, 1) is True
        assert (0, 1) in cfg
        assert cfg.toggle(0, 1) is False
        assert cfg.is_empty

    def test_clear(self):
        cfg = ConfigMatrix.from_permutation([1, 0])
        cfg.clear()
        assert cfg.is_empty
        cfg.check_invariants()

    def test_load(self):
        a = ConfigMatrix.from_pairs(4, [(0, 1)])
        b = ConfigMatrix.from_pairs(4, [(2, 3), (3, 2)])
        a.load(b)
        assert a == b
        assert len(a) == 2

    def test_load_size_mismatch(self):
        with pytest.raises(ConfigurationError):
            ConfigMatrix(4).load(ConfigMatrix(8))


class TestQueries:
    def test_grants_are_copy(self):
        cfg = ConfigMatrix.from_pairs(4, [(0, 1)])
        g = cfg.grants()
        g[0, 1] = False
        assert (0, 1) in cfg

    def test_busy_vectors(self):
        cfg = ConfigMatrix.from_pairs(4, [(1, 3)])
        assert list(cfg.input_busy()) == [False, True, False, False]
        assert list(cfg.output_busy()) == [False, False, False, True]

    def test_connections_ordered_by_input(self):
        cfg = ConfigMatrix.from_pairs(4, [(2, 0), (0, 3)])
        assert [tuple(c) for c in cfg.connections()] == [(0, 3), (2, 0)]

    def test_input_output_of(self):
        cfg = ConfigMatrix.from_pairs(4, [(1, 2)])
        assert cfg.output_of(1) == 2
        assert cfg.input_of(2) == 1
        assert cfg.input_of(0) is None

    def test_copy_independent(self):
        a = ConfigMatrix.from_pairs(4, [(0, 1)])
        b = a.copy()
        b.release(0, 1)
        assert (0, 1) in a

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(ConfigMatrix(4))

    def test_eq_different_size(self):
        assert ConfigMatrix(4) != ConfigMatrix(5)


@given(
    st.lists(
        st.tuples(st.integers(0, 7), st.integers(0, 7)),
        max_size=30,
    )
)
def test_random_operation_sequences_hold_invariants(ops):
    """Establish/toggle/release in any legal order keeps the matrix valid."""
    cfg = ConfigMatrix(8)
    for u, v in ops:
        if (u, v) in cfg:
            cfg.release(u, v)
        elif cfg.output_of(u) is None and cfg.input_of(v) is None:
            cfg.establish(u, v)
        cfg.check_invariants()
    # row/column sums never exceed 1
    assert cfg.b.sum(axis=0).max(initial=0) <= 1
    assert cfg.b.sum(axis=1).max(initial=0) <= 1
