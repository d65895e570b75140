"""Canonical cell encoding and the code fingerprint.

The execution engine (:mod:`repro.exec.engine`) identifies a run cell by
*value*, never by position: the cache key is derived from a canonical
JSON encoding of the cell, so it cannot depend on worker index,
completion order, or dict insertion order.  Two pieces live here:

* :func:`canonical_json` — a deterministic JSON encoding for the plain
  values cells are built from (primitives, lists/tuples, string-keyed
  dicts, and dataclasses such as :class:`~repro.params.SystemParams` or
  the per-driver cell records).  Dataclasses are tagged with their
  qualified class name so two cell types with identical fields can never
  collide; anything unencodable (functions, tracers, arrays) raises
  :class:`CellEncodingError` — such values must not ride in a cell.
* :func:`code_fingerprint` — a digest over every ``.py`` file under the
  installed ``repro`` package.  It participates in every cache key, so a
  result computed by old code can never be served after a source change.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from functools import lru_cache
from pathlib import Path
from typing import Any

from ..errors import ConfigurationError

__all__ = [
    "CellEncodingError",
    "canonical_encode",
    "canonical_json",
    "code_fingerprint",
]


class CellEncodingError(ConfigurationError):
    """A cell carries a value with no canonical encoding."""


#: primitive types encoded as themselves
_PRIMITIVES = (str, int, float, bool, type(None))


def canonical_encode(obj: Any) -> Any:
    """Reduce ``obj`` to a JSON-safe tree with a unique canonical form.

    Tuples and lists both encode as JSON arrays (a cell's geometry is the
    value, not the Python container); dict keys must be strings and are
    emitted sorted; dataclass instances carry their qualified class name.
    """
    if isinstance(obj, bool) or obj is None or isinstance(obj, (str, int)):
        return obj
    if isinstance(obj, float):
        if obj != obj or obj in (float("inf"), float("-inf")):
            raise CellEncodingError(f"non-finite float {obj!r} has no canonical form")
        return obj
    if isinstance(obj, (list, tuple)):
        return [canonical_encode(item) for item in obj]
    if isinstance(obj, dict):
        out = {}
        for key in sorted(obj):
            if not isinstance(key, str):
                raise CellEncodingError(
                    f"dict key {key!r} is not a string; cells must use "
                    "string-keyed dicts"
                )
            out[key] = canonical_encode(obj[key])
        return out
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        cls = type(obj)
        return {
            "__dataclass__": f"{cls.__module__}.{cls.__qualname__}",
            "fields": {
                f.name: canonical_encode(getattr(obj, f.name))
                for f in dataclasses.fields(obj)
            },
        }
    raise CellEncodingError(
        f"{type(obj).__qualname__} value {obj!r} cannot ride in a run cell; "
        "cells must be plain data (primitives, lists, string-keyed dicts, "
        "dataclasses of those)"
    )


def canonical_json(obj: Any) -> str:
    """The canonical JSON string for ``obj`` (compact, keys sorted)."""
    return json.dumps(
        canonical_encode(obj), sort_keys=True, separators=(",", ":")
    )


def _package_root() -> Path:
    from .. import __file__ as pkg_file

    return Path(pkg_file).resolve().parent


@lru_cache(maxsize=None)
def _fingerprint_of(root: str) -> str:
    h = hashlib.sha256()
    base = Path(root)
    for path in sorted(base.rglob("*.py")):
        rel = path.relative_to(base).as_posix()
        h.update(rel.encode())
        h.update(b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


def code_fingerprint() -> str:
    """Digest of every ``repro`` source file (cached per process)."""
    return _fingerprint_of(str(_package_root()))
