"""A deterministic discrete-event simulation kernel.

The engine is a classic binary-heap event loop.  Three properties matter for
reproducing the paper's cycle-accurate results:

* **integer time** — events are stamped with integer picoseconds, so there
  is never floating point tie ambiguity;
* **total ordering** — simultaneous events are ordered by an explicit
  ``priority`` (lower runs first) and then by insertion sequence, so a run
  is bit-for-bit repeatable;
* **cancellation** — periodic processes (slot clocks, SL clocks) and
  time-out predictors need to cancel pending events cheaply; cancelled
  events stay in the heap and are skipped when popped, but the heap is
  lazily compacted whenever cancelled entries outnumber live ones, so
  long runs with heavy cancellation keep bounded memory.

Components register callbacks rather than subclassing anything; the network
models in :mod:`repro.networks` drive all their state machines through one
:class:`Simulator` instance per run.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from ..errors import SimulationError

__all__ = ["Event", "Simulator", "Priority"]


class Priority:
    """Well-known event priorities (lower value runs first at equal time).

    The relative order encodes the hardware's intra-instant causality: at a
    slot boundary the fabric is reconfigured before any data moves, and
    request-wire updates are seen by the scheduler before the SL pass that
    could consume them.
    """

    FABRIC = 0  # fabric reconfiguration / TDM counter advance
    WIRE = 10  # request & grant wire arrivals
    SCHEDULER = 20  # SL array passes
    TRANSFER = 30  # data movement within a slot
    NIC = 40  # queue state changes, message completion
    MONITOR = 90  # measurement probes, drained-detection
    DEFAULT = 50


@dataclass(slots=True)
class Event:
    """A scheduled callback.  Returned by :meth:`Simulator.schedule`."""

    time: int
    priority: int
    seq: int
    fn: Callable[..., Any] | None
    args: tuple
    owner: "Simulator | None" = None

    def cancel(self) -> None:
        """Prevent the event from running; safe to call multiple times."""
        if self.fn is None:
            return
        self.fn = None
        if self.owner is not None:
            self.owner._note_cancelled()


@dataclass
class Simulator:
    """The event loop.

    Typical use::

        sim = Simulator()
        sim.schedule(ns(100), my_callback, arg1, arg2)
        sim.run()

    ``run`` executes events in time order until the heap is empty, an
    ``until`` horizon is reached, or ``stop()`` is called from inside a
    callback.

    Heap entries are plain ``(time, priority, seq, event)`` tuples so that
    ``heapq`` compares them in C: the unique ``seq`` guarantees the tuple
    comparison never falls through to the Event object, which therefore
    needs no ``__lt__`` at all.  (Profiling showed Python-level ordering
    dominating worm-heavy simulations.)
    """

    now: int = 0
    _heap: list[tuple[int, int, int, Event]] = field(default_factory=list)
    _seq: int = 0
    _stopped: bool = False
    events_executed: int = 0
    #: total live events ever cancelled via :meth:`Event.cancel`
    events_cancelled: int = 0
    #: deepest the heap has ever been (live + cancelled entries)
    heap_high_water: int = 0
    #: cumulative wall-clock seconds spent inside :meth:`run`
    run_wall_s: float = 0.0
    #: how many times the heap was rebuilt to shed cancelled entries
    compactions: int = 0
    #: cancelled events currently sitting in the heap (lazy-deletion debt)
    _dead_in_heap: int = 0

    def schedule(
        self,
        delay_ps: int,
        fn: Callable[..., Any],
        *args: Any,
        priority: int = Priority.DEFAULT,
    ) -> Event:
        """Schedule ``fn(*args)`` to run ``delay_ps`` after the current time."""
        if delay_ps < 0:
            raise SimulationError(f"cannot schedule {delay_ps} ps in the past")
        return self.schedule_at(self.now + delay_ps, fn, *args, priority=priority)

    def schedule_at(
        self,
        time_ps: int,
        fn: Callable[..., Any],
        *args: Any,
        priority: int = Priority.DEFAULT,
    ) -> Event:
        """Schedule ``fn(*args)`` at absolute time ``time_ps``."""
        if time_ps < self.now:
            raise SimulationError(
                f"cannot schedule at {time_ps} ps, current time is {self.now} ps"
            )
        ev = Event(time_ps, priority, self._seq, fn, args, self)
        heapq.heappush(self._heap, (time_ps, priority, self._seq, ev))
        self._seq += 1
        if len(self._heap) > self.heap_high_water:
            self.heap_high_water = len(self._heap)
        return ev

    def stop(self) -> None:
        """Stop the event loop after the current callback returns."""
        self._stopped = True

    #: heap sizes below this are not worth compacting
    _COMPACT_FLOOR = 64

    def _note_cancelled(self) -> None:
        """A live scheduled event was cancelled (called by Event.cancel).

        Cancelled entries are skipped lazily at pop time; once they make up
        more than half the heap the whole heap is rebuilt without them, so
        timeout-predictor-heavy runs cannot grow memory without bound.
        """
        self.events_cancelled += 1
        self._dead_in_heap += 1
        if (
            self._dead_in_heap * 2 > len(self._heap)
            and len(self._heap) > self._COMPACT_FLOOR
        ):
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap keeping only live events.

        In place (``[:]``), never rebinding: :meth:`run` holds a local
        reference to the heap list across callbacks, and a callback's
        ``cancel()`` can compact mid-loop.
        """
        self._heap[:] = [entry for entry in self._heap if entry[3].fn is not None]
        heapq.heapify(self._heap)
        self._dead_in_heap = 0
        self.compactions += 1

    #: events between wall-clock watchdog checks (a power of two so the
    #: test ``executed & MASK`` compiles to one AND per event)
    _WATCHDOG_STRIDE = 4096

    def run(
        self,
        until: int | None = None,
        max_events: int | None = None,
        max_wall_s: float | None = None,
    ) -> int:
        """Run the event loop.

        Parameters
        ----------
        until:
            Absolute time horizon (inclusive); events after it stay queued.
        max_events:
            Safety valve for tests: raise after this many executions.
        max_wall_s:
            Wall-clock watchdog: raise :class:`SimulationError` once the
            loop has run this many real seconds.  Hung recovery loops (a
            fault-injection hazard) die with sim-time/event diagnostics
            instead of spinning; checked every ``_WATCHDOG_STRIDE`` events
            so the healthy path pays no ``time.monotonic`` cost per event.

        Returns the simulation time after the last executed event.
        """
        self._stopped = False
        executed = 0
        wall_start = time.monotonic()
        deadline = (
            wall_start + max_wall_s if max_wall_s is not None else None
        )
        stride = self._WATCHDOG_STRIDE - 1
        # hot-loop locals: attribute lookups on ``heapq``/``time``/``self``
        # cost a dict probe per event at millions of events per run.  The
        # heap binding survives callbacks because _compact rebuilds it in
        # place; _stopped/_dead_in_heap stay attribute accesses (callbacks
        # mutate them mid-loop); events_executed is flushed in the finally.
        heap = self._heap
        heappop = heapq.heappop
        heappush = heapq.heappush
        monotonic = time.monotonic
        try:
            while heap and not self._stopped:
                entry = heappop(heap)
                ev = entry[3]
                if ev.fn is None:
                    self._dead_in_heap -= 1
                    continue
                if until is not None and ev.time > until:
                    heappush(heap, entry)
                    self.now = until
                    break
                if ev.time < self.now:  # pragma: no cover - heap guarantees order
                    raise SimulationError("event heap yielded a past event")
                self.now = ev.time
                fn, args = ev.fn, ev.args
                # guard against re-execution through stale references; not
                # cancel() — the event has left the heap and must not count
                # against the lazy-deletion debt
                ev.fn = None
                fn(*args)
                executed += 1
                if max_events is not None and executed >= max_events:
                    raise SimulationError(
                        f"exceeded max_events={max_events}; likely a runaway loop"
                    )
                if (
                    deadline is not None
                    and (executed & stride) == 0
                    and monotonic() > deadline
                ):
                    raise SimulationError(
                        f"wall-clock watchdog tripped after {max_wall_s} s: "
                        f"sim time {self.now} ps, {executed} events this run "
                        f"({self.events_executed + executed} total), "
                        f"{len(heap)} queued"
                    )
        finally:
            self.events_executed += executed
            self.run_wall_s += monotonic() - wall_start
        return self.now

    @property
    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued."""
        return len(self._heap) - self._dead_in_heap

    def perf_counters(self) -> dict[str, float]:
        """Event-loop performance counters for the observability layer.

        ``events_per_sec`` covers time spent inside :meth:`run` only, so a
        caller that interleaves analysis between excursions does not dilute
        the kernel's own throughput number.
        """
        scheduled = self._seq
        return {
            "events_executed": self.events_executed,
            "events_scheduled": scheduled,
            "events_cancelled": self.events_cancelled,
            "cancelled_ratio": (
                self.events_cancelled / scheduled if scheduled else 0.0
            ),
            "heap_high_water": self.heap_high_water,
            "compactions": self.compactions,
            "pending": self.pending,
            "run_wall_s": self.run_wall_s,
            "events_per_sec": (
                self.events_executed / self.run_wall_s if self.run_wall_s > 0 else 0.0
            ),
        }
