"""Worker-side plumbing for the parallel execution engine.

A pool worker is a long-lived process that runs many cells back to back,
so any module-global mutable state one cell touches would leak into the
next — and, under the default ``fork`` start method, state the *parent*
process dirtied before the pool was created is inherited too.  Both leaks
are closed the same way: :func:`reset_process_state` restores every known
piece of process-global state to its import-time value, and it runs both
as the pool initializer (scrubs the inherited fork image) and at the top
of every task (scrubs whatever the previous cell left behind).

The known global state, and what reset does to it:

* **scheme registry** (:mod:`repro.networks.registry`) — cells could
  register ad-hoc schemes; registrations made after import are removed
  (the import-time set is snapshotted the first time this module loads).
* **null tracer** (:data:`repro.sim.trace.NULL_TRACER`) — shared across
  every untraced run; drained so no recorded event can cross cells.
* **RNG streams** (:mod:`repro.sim.rng`) — stateless by construction
  (generators are derived per call from (seed, name)); nothing to reset,
  asserted here so a future singleton cannot appear unnoticed.

Fault injectors, simulators, lifecycle managers, and NIC state are all
per-run objects created inside the cell; they need no scrubbing.
"""

from __future__ import annotations

import time
from typing import Any, Callable

__all__ = ["reset_process_state", "run_task"]


def _registry_baseline() -> frozenset[str]:
    from ..networks import registry

    return frozenset(registry._ALIAS_TO_NAME)


#: scheme names + aliases present when this module was first imported
_BASELINE_SCHEMES = _registry_baseline()


def reset_process_state() -> None:
    """Restore every known piece of process-global state.

    Idempotent and cheap (no I/O, no allocation beyond a few dict ops);
    safe to call in the parent process as well as in pool workers.
    """
    from ..networks import registry
    from ..sim import rng
    from ..sim.trace import NULL_TRACER

    # schemes registered after import (a cell's ad-hoc register_scheme)
    for alias in set(registry._ALIAS_TO_NAME) - _BASELINE_SCHEMES:
        name = registry._ALIAS_TO_NAME.pop(alias)
        registry._REGISTRY.pop(name, None)

    # the shared disabled tracer must never carry events between cells
    NULL_TRACER.clear()
    NULL_TRACER.enabled = False

    # repro.sim.rng keeps no module-level generator state; if a singleton
    # ever appears there this assertion forces this reset to learn about it
    assert not any(
        isinstance(v, (dict, list, set)) and v
        for k, v in vars(rng).items()
        if k.startswith("_") and not k.startswith("__")
    ), "repro.sim.rng grew module-level mutable state; reset it here"


def init_worker() -> None:
    """Pool initializer: scrub state inherited from the forked parent."""
    reset_process_state()


def run_task(runner: Callable[..., Any], cell: Any) -> tuple[Any, float]:
    """Execute one cell in a clean process state; returns (payload, wall_s).

    Runs in the pool worker (or inline for the serial path's pooled tests).
    The reset at the top is what makes a *reused* worker equivalent to a
    fresh process: cell N+1 cannot observe anything cell N did to module
    globals.
    """
    reset_process_state()
    start = time.perf_counter()
    payload = runner(cell)
    return payload, time.perf_counter() - start
