"""The end-to-end benchmark's traced names must stay defined where looked up.

``benchmarks/e2e/trace.py`` wraps every :data:`SPANS` entry point in place
before a traced run; a method that is renamed, dropped or merely inherited
makes that run fail.  This check resolves each entry through the file's own
``_lookup_site`` so such a change fails here, in well under a second.  The
file is loaded by path: its module name would shadow the stdlib ``trace``.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

TRACE_PY = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e" / "trace.py"


def _load_trace_module():
    spec = importlib.util.spec_from_file_location("e2e_bench_trace", TRACE_PY)
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACE = _load_trace_module()


@pytest.mark.parametrize(
    "module, path", [(module, path) for _, module, path in TRACE.SPANS]
)
def test_span_site_is_defined_where_looked_up(module, path):
    owner, attr = TRACE._lookup_site(module, path)
    assert callable(vars(owner)[attr])
