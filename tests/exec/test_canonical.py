"""Canonical encoding and fingerprint unit tests."""

from __future__ import annotations

import dataclasses

import pytest

from repro.exec import (
    CellEncodingError,
    canonical_encode,
    canonical_json,
    code_fingerprint,
)


@dataclasses.dataclass(frozen=True)
class _Cell:
    name: str
    size: int


@dataclasses.dataclass(frozen=True)
class _OtherCell:
    name: str
    size: int


class TestCanonicalEncode:
    def test_primitives_pass_through(self):
        for value in ("s", 7, 1.5, True, False, None):
            assert canonical_encode(value) == value

    def test_tuples_and_lists_are_the_same_value(self):
        assert canonical_json((1, 2, 3)) == canonical_json([1, 2, 3])

    def test_dict_keys_sorted(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})

    def test_dataclass_tagged_with_qualified_name(self):
        encoded = canonical_encode(_Cell(name="x", size=1))
        assert encoded["__dataclass__"].endswith("_Cell")
        assert encoded["fields"] == {"name": "x", "size": 1}

    def test_same_fields_different_class_differ(self):
        assert canonical_json(_Cell("x", 1)) != canonical_json(_OtherCell("x", 1))

    def test_nested_cells_encode(self):
        cell = {"inner": _Cell("x", 1), "sizes": (8, 64)}
        assert canonical_json(cell) == canonical_json(
            {"sizes": [8, 64], "inner": _Cell("x", 1)}
        )

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_floats_rejected(self, bad):
        with pytest.raises(CellEncodingError, match="non-finite"):
            canonical_encode(bad)

    def test_non_string_dict_keys_rejected(self):
        with pytest.raises(CellEncodingError, match="not a string"):
            canonical_encode({1: "x"})

    def test_arbitrary_objects_rejected(self):
        with pytest.raises(CellEncodingError, match="cannot ride"):
            canonical_encode(object())
        with pytest.raises(CellEncodingError):
            canonical_encode(lambda: None)


class TestCodeFingerprint:
    def test_stable_and_hex(self):
        fp = code_fingerprint()
        assert fp == code_fingerprint()
        assert len(fp) == 64
        int(fp, 16)
