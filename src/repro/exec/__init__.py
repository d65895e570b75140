"""Parallel experiment execution with a content-addressed result cache.

The package behind ``--jobs`` and ``repro cache``:

* :mod:`~repro.exec.engine` — :func:`map_cells`, the deterministic
  fan-out/ordered-reduce executor every sweep driver uses;
* :mod:`~repro.exec.cache` — the content-addressed
  :class:`~repro.exec.cache.ResultCache` (cell + seed + code fingerprint
  address a metrics payload);
* :mod:`~repro.exec.canonical` — canonical cell encoding and the source
  fingerprint that makes stale cache hits structurally impossible;
* :mod:`~repro.exec.worker` — per-process state scrubbing so reused pool
  workers cannot leak state between cells.

See ``docs/performance.md`` for the determinism guarantees and the knobs
(``--jobs N`` / ``REPRO_JOBS``, ``REPRO_CACHE_DIR``, ``--no-cache``,
``--refresh``).
"""

from .cache import CACHE_DIR_ENV_VAR, CacheEntry, CacheStats, ResultCache
from .canonical import (
    CellEncodingError,
    canonical_encode,
    canonical_json,
    code_fingerprint,
)
from .engine import JOBS_ENV_VAR, ExecOutcome, ExecStats, map_cells, resolve_jobs
from .worker import reset_process_state

__all__ = [
    "CACHE_DIR_ENV_VAR",
    "JOBS_ENV_VAR",
    "CacheEntry",
    "CacheStats",
    "CellEncodingError",
    "ExecOutcome",
    "ExecStats",
    "ResultCache",
    "canonical_encode",
    "canonical_json",
    "code_fingerprint",
    "map_cells",
    "reset_process_state",
    "resolve_jobs",
]
