"""The deterministic parallel experiment engine.

:func:`map_cells` is the one entry point every sweep driver uses: it takes
a module-level ``runner`` function and a list of *cells* (plain-data
values describing one independent unit of work each — one (pattern,
scheme, size) simulation, one fault campaign, one ablation) and returns
the payloads **in cell order**, bit-identical no matter how many worker
processes ran them or in what order they completed.  Determinism rests on
three rules:

* **cells are values** — each cell is canonically encoded
  (:mod:`repro.exec.canonical`) and carries whatever seed it runs with,
  so nothing about it comes from a worker index or a submission counter;
* **ordered reduction** — results are placed by cell index, so completion
  order is invisible to the caller;
* **no shared state** — every cell builds its own simulator/network/RNGs,
  and pool workers scrub process-global state before every cell
  (:mod:`repro.exec.worker`), so a reused worker is indistinguishable
  from a fresh process.

``jobs`` resolves as: explicit argument, else the ``REPRO_JOBS``
environment variable, else ``os.cpu_count()``.  ``jobs=1`` runs every
cell in-process, in order, with no pool and no pickling — exactly the
pre-engine serial path.  An optional content-addressed
:class:`~repro.exec.cache.ResultCache` short-circuits cells whose payload
is already on disk; ``refresh=True`` recomputes and overwrites.

Direct ``ProcessPoolExecutor``/``multiprocessing`` use anywhere else in
the repo is forbidden by ``tools/check_construction.py`` — all fan-out
goes through here so the determinism rules cannot be bypassed.
"""

from __future__ import annotations

import os
import sys
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator

from ..errors import ConfigurationError
from .cache import ResultCache
from .canonical import canonical_json, code_fingerprint
from .worker import init_worker, run_task

__all__ = ["JOBS_ENV_VAR", "ExecStats", "ExecOutcome", "map_cells", "resolve_jobs"]

JOBS_ENV_VAR = "REPRO_JOBS"


def resolve_jobs(jobs: int | None = None) -> int:
    """Explicit value, else ``$REPRO_JOBS``, else ``os.cpu_count()``."""
    if jobs is None:
        env = os.environ.get(JOBS_ENV_VAR, "").strip()
        jobs = int(env) if env else (os.cpu_count() or 1)
    jobs = int(jobs)
    if jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
    return jobs


def _resolve_cache(cache: ResultCache | str | os.PathLike | bool | None) -> ResultCache | None:
    if cache is None or cache is False:
        return None
    if cache is True:
        return ResultCache()
    if isinstance(cache, ResultCache):
        return cache
    return ResultCache(cache)


@dataclass(slots=True)
class ExecStats:
    """Executor telemetry for one :func:`map_cells` call.

    ``serial_estimate_s`` sums what every cell cost (fresh cells as
    measured, cached cells as originally recorded), so ``speedup`` is the
    sweep's wall-clock advantage over running everything serially, cold.
    """

    label: str
    jobs: int
    cells_total: int = 0
    cells_run: int = 0
    cells_cached: int = 0
    #: wall-clock seconds spent inside freshly-run cells (summed)
    cell_wall_s: float = 0.0
    #: original cost of the cells served from the cache (summed)
    cached_wall_s: float = 0.0
    #: end-to-end wall-clock of the map_cells call
    elapsed_s: float = 0.0
    #: per-cell wall seconds, by cell index (cached cells report their
    #: originally recorded cost)
    cell_wall: list[float] = field(default_factory=list)

    @property
    def serial_estimate_s(self) -> float:
        return self.cell_wall_s + self.cached_wall_s

    @property
    def speedup(self) -> float:
        return self.serial_estimate_s / self.elapsed_s if self.elapsed_s > 0 else 0.0

    @property
    def pool_utilization(self) -> float:
        """Fraction of the pool's capacity spent inside cells."""
        if self.elapsed_s <= 0 or self.jobs <= 0:
            return 0.0
        return min(1.0, self.cell_wall_s / (self.jobs * self.elapsed_s))

    def as_counters(self) -> dict[str, float]:
        """Counters in the shape :func:`repro.obs.format_perf` renders."""
        return {
            "cells_total": self.cells_total,
            "cells_run": self.cells_run,
            "cells_cached": self.cells_cached,
            "jobs": self.jobs,
            "cell_wall_s": self.cell_wall_s,
            "cached_wall_s": self.cached_wall_s,
            "elapsed_s": self.elapsed_s,
            "serial_estimate_s": self.serial_estimate_s,
            "speedup_vs_serial": self.speedup,
            "pool_utilization": self.pool_utilization,
        }

    def summary(self) -> str:
        """The one-line progress/telemetry summary."""
        return (
            f"{self.label}: {self.cells_total} cells "
            f"({self.cells_run} run, {self.cells_cached} cached, "
            f"jobs {self.jobs}) in {self.elapsed_s:.2f} s — "
            f"serial estimate {self.serial_estimate_s:.2f} s, "
            f"{self.speedup:.1f}x, pool {self.pool_utilization:.0%}"
        )


@dataclass(slots=True)
class ExecOutcome:
    """Ordered payloads plus telemetry for one :func:`map_cells` call."""

    payloads: list[Any]
    stats: ExecStats

    def __iter__(self) -> Iterator[Any]:
        return iter(self.payloads)

    def __len__(self) -> int:
        return len(self.payloads)

    def __getitem__(self, index: int) -> Any:
        return self.payloads[index]


def _emit_progress(stats: ExecStats, done: int, stream: Any) -> None:
    stream.write(
        f"\r{stats.label}: {done}/{stats.cells_total} cells "
        f"({stats.cells_cached} cached, jobs {stats.jobs})"
    )
    stream.flush()


def map_cells(
    runner: Callable[..., Any],
    cells: Iterable[Any],
    *,
    root_seed: int = 0,
    jobs: int | None = None,
    cache: ResultCache | str | os.PathLike | bool | None = None,
    refresh: bool = False,
    label: str = "",
    progress: bool = False,
    force_pool: bool = False,
) -> ExecOutcome:
    """Run every cell and return payloads in cell order.

    Parameters
    ----------
    runner:
        Module-level function mapping one cell to its payload, called as
        ``runner(cell)``.  Must be picklable by reference (pools send the
        qualified name, not the code).
    cells:
        Plain-data cell values (see :mod:`repro.exec.canonical` for what
        encodes).  Each must fully describe its computation — the cache
        addresses payloads by cell content.
    root_seed:
        The sweep's master seed; mixed into every cache key.  Sweeps that
        must show *identical* workloads to every cell (the paper's
        cross-scheme comparison rule) carry it inside the cell as well.
    jobs:
        Worker processes (see :func:`resolve_jobs`).  ``1`` = in-process
        serial execution, no pool.
    cache:
        ``None``/``False`` = no caching; ``True`` = the default cache
        directory; a path or :class:`ResultCache` = that cache.
    refresh:
        Recompute every cell and overwrite its cache entry.
    progress:
        Write a carriage-return progress line and a final summary to
        stderr.
    force_pool:
        Use a worker pool even for ``jobs=1`` (tests exercise worker
        reuse with it; the serial path never resets in-process state).
    """
    cells = list(cells)
    jobs = resolve_jobs(jobs)
    store = _resolve_cache(cache)
    runner_id = f"{runner.__module__}:{runner.__qualname__}"
    stats = ExecStats(
        label=label or runner_id,
        jobs=jobs,
        cells_total=len(cells),
        cell_wall=[0.0] * len(cells),
    )
    cell_jsons = [canonical_json(cell) for cell in cells]
    keys: list[str] = []
    if store is not None:
        fingerprint = code_fingerprint()
        keys = [
            ResultCache.key(runner_id, js, root_seed, fingerprint)
            for js in cell_jsons
        ]

    start = time.perf_counter()
    payloads: list[Any] = [None] * len(cells)
    pending: list[int] = []
    completed = 0
    stream = sys.stderr
    for i in range(len(cells)):
        hit = store.get(keys[i]) if store is not None and not refresh else None
        if hit is not None:
            payloads[i] = hit.payload
            stats.cells_cached += 1
            stats.cached_wall_s += hit.wall_s
            stats.cell_wall[i] = hit.wall_s
            completed += 1
        else:
            pending.append(i)
    if progress and completed:
        _emit_progress(stats, completed, stream)

    def finish(i: int, payload: Any, wall_s: float) -> None:
        nonlocal completed
        payloads[i] = payload
        stats.cells_run += 1
        stats.cell_wall_s += wall_s
        stats.cell_wall[i] = wall_s
        completed += 1
        if store is not None:
            store.put(
                keys[i],
                payload,
                wall_s=wall_s,
                runner_id=runner_id,
                cell_json=cell_jsons[i],
            )
        if progress:
            _emit_progress(stats, completed, stream)

    if pending and jobs == 1 and not force_pool:
        # the serial path: in order, in process, no pickling, and no
        # worker-state scrubbing (the caller's process is its own)
        for i in pending:
            t0 = time.perf_counter()
            payload = runner(cells[i])
            finish(i, payload, time.perf_counter() - t0)
    elif pending:
        workers = min(jobs, len(pending))
        with ProcessPoolExecutor(
            max_workers=workers, initializer=init_worker
        ) as pool:
            futures = {
                pool.submit(run_task, runner, cells[i]): i
                for i in pending
            }
            remaining = set(futures)
            while remaining:
                finished, remaining = wait(remaining, return_when=FIRST_COMPLETED)
                for fut in finished:
                    payload, wall_s = fut.result()
                    finish(futures[fut], payload, wall_s)

    stats.elapsed_s = time.perf_counter() - start
    if progress:
        stream.write(f"\r{stats.summary()}\n")
        stream.flush()
    return ExecOutcome(payloads=payloads, stats=stats)
