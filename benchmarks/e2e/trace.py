"""Per-layer spans for the traced run, recorded from outside the package.

:class:`SpanRecorder` replaces the module and class attributes in
:data:`SPANS` with timing wrappers before any network is built, and puts
the originals back afterwards.  Each attribute is replaced where callers
look it up.  ``wavefront_sparse`` is bound into ``Scheduler`` at
construction, ``wavefront_batch`` is swapped in by the fast path and by
the circuit network, and the clock callbacks are patched on their class.
The package's own ``Tracer`` is not used, because enabling it forces runs
off the fast path.

Every call updates per-span totals: calls, self time and total time.
Self time is the span's duration minus the time of its child spans.  The
first :data:`SPANS_PER_CELL` spans of each cell are also kept, with
parent span and cell id, for the Chrome trace.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from pathlib import Path
from typing import Any, Callable

#: (span name, module, attribute path).  The name is ``<layer>.<fn>``,
#: with the layer named after the defining module under ``repro``; one
#: name may be patched at several lookup sites.
SPANS: tuple[tuple[str, str, str], ...] = (
    ("sim.engine.run", "repro.sim.engine", "Simulator.run"),
    ("sim.engine.schedule", "repro.sim.engine", "Simulator.schedule"),
    ("sim.engine.schedule_at", "repro.sim.engine", "Simulator.schedule_at"),
    ("sched.scheduler.sl_pass", "repro.sched.scheduler", "Scheduler.sl_pass"),
    ("sched.presched.compute_l", "repro.sched.scheduler", "compute_l"),
    ("sched.slarray.wavefront_sparse", "repro.sched.scheduler", "wavefront_sparse"),
    ("sched.slarray.wavefront_batch", "repro.sim.fastpath", "wavefront_batch"),
    ("sched.slarray.wavefront_batch", "repro.networks.circuit", "wavefront_batch"),
    ("networks.tdm._slot_tick", "repro.networks.tdm", "TdmNetwork._slot_tick"),
    ("networks.tdm._transfer_slot", "repro.networks.tdm", "TdmNetwork._transfer_slot"),
    ("networks.tdm._sl_tick", "repro.networks.tdm", "TdmNetwork._sl_tick"),
    ("sim.fastpath.transfer_slot", "repro.sim.fastpath", "FastPath.transfer_slot"),
    ("sim.fastpath.handle_sl_tick", "repro.sim.fastpath", "FastPath.handle_sl_tick"),
    ("sim.fastpath.maybe_open_window", "repro.sim.fastpath", "FastPath.maybe_open_window"),
    ("nic.queues.drain", "repro.nic.queues", "VirtualOutputQueues.drain"),
    ("nic.flow.send", "repro.nic.flow", "FlowLedger.send"),
    (
        "networks.multiswitch._sl_tick",
        "repro.networks.multiswitch",
        "MultiSwitchTdmNetwork._sl_tick",
    ),
    (
        "networks.multiswitch._slot_tick",
        "repro.networks.multiswitch",
        "MultiSwitchTdmNetwork._slot_tick",
    ),
    (
        "networks.multiswitch._coordinated_establish",
        "repro.networks.multiswitch",
        "MultiSwitchTdmNetwork._coordinated_establish",
    ),
    (
        "networks.multiswitch._try_place",
        "repro.networks.multiswitch",
        "MultiSwitchTdmNetwork._try_place",
    ),
    ("topo.graph.route", "repro.topo.graph", "Topology.route"),
    ("networks.islip._slot_tick", "repro.networks.islip", "IslipNetwork._slot_tick"),
    ("compiled.coloring.decompose", "repro.networks.tdm", "decompose"),
    ("compiled.coloring.decompose", "repro.compiled.patterns", "decompose"),
    ("compiled.coloring.decompose", "repro.service.fabric", "decompose"),
    ("sched.solstice.solstice_schedule", "repro.networks.tdm", "solstice_schedule"),
    ("networks.registry.build_network", "repro.networks.registry", "build_network"),
    ("networks.registry.build_network", "repro.experiments.scaleout", "build_network"),
    ("traffic.base.phases", "repro.traffic.base", "TrafficPattern.phases"),
    ("metrics.efficiency.run_lower_bound_ps", "repro.metrics.efficiency", "run_lower_bound_ps"),
    ("service.core.submit", "repro.service.core", "SwitchService.submit"),
    ("service.core.run_campaign", "repro.service.core", "SwitchService.run_campaign"),
    ("networks.lifecycle.arm", "repro.networks.lifecycle", "ConnectionManager.arm"),
    ("networks.lifecycle.give_up", "repro.networks.lifecycle", "ConnectionManager.give_up"),
    ("faults.injector.note_progress", "repro.faults.injector", "FaultInjector.note_progress"),
)

#: the distinct span names, in SPANS order
SPAN_NAMES: tuple[str, ...] = tuple(dict.fromkeys(name for name, _, _ in SPANS))

#: spans kept per cell for the Chrome trace (totals cover every call)
SPANS_PER_CELL = 500


def _lookup_site(module: str, path: str) -> tuple[Any, str]:
    """The object that owns the attribute, and the attribute's name."""
    owner: Any = importlib.import_module(module)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    if attr not in vars(owner):
        raise AttributeError(f"{module}.{path} is not defined where it is looked up")
    return owner, attr


class SpanRecorder:
    """Timing wrappers around the :data:`SPANS` entry points.

    Use as a context manager: entering installs the wrappers, leaving
    restores the original attributes.
    """

    def __init__(self) -> None:
        #: span name -> [calls, self_ns, total_ns]
        self.totals: dict[str, list[int]] = {name: [0, 0, 0] for name in SPAN_NAMES}
        #: kept spans: (name, start_ns, end_ns, span id, parent id, trace id)
        self.spans: list[tuple[str, int, int, int, int | None, str]] = []
        self.trace_id = ""
        self._budget = SPANS_PER_CELL
        self._next_id = 0
        #: open spans as [span id, child ns]; the root frame has no id
        self._stack: list[list] = [[None, 0]]
        self._saved: list[tuple[Any, str, Any]] = []

    def begin_cell(self, trace_id: str) -> None:
        """Spans from now on belong to cell ``trace_id``."""
        self.trace_id = trace_id
        self._budget = SPANS_PER_CELL

    def _wrap(self, name: str, fn: Callable) -> Callable:
        clock = time.perf_counter_ns
        stack = self._stack
        totals = self.totals[name]

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1]
            frame = [span_id, 0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                parent[1] += duration
                totals[0] += 1
                totals[1] += duration - frame[1]
                totals[2] += duration
                if self._budget:
                    self._budget -= 1
                    self.spans.append(
                        (name, start, end, span_id, parent[0], self.trace_id)
                    )

        return wrapper

    def __enter__(self) -> SpanRecorder:
        try:
            for name, module, path in SPANS:
                owner, attr = _lookup_site(module, path)
                original = vars(owner)[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc: object) -> None:
        self.restore()

    def restore(self) -> None:
        """Put every replaced attribute back, newest first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def layers(self, passes: int) -> dict[str, dict[str, float]]:
        """Per-pass calls, self time and total time of every span name."""
        return {
            name: {
                "calls": calls / passes,
                "self_s": self_ns / passes / 1e9,
                "total_s": total_ns / passes / 1e9,
            }
            for name, (calls, self_ns, total_ns) in self.totals.items()
        }

    def write_chrome(self, path: Path) -> None:
        """Write the kept spans as a Chrome trace (``chrome://tracing``)."""
        t0 = min((s[1] for s in self.spans), default=0)
        events = [
            {
                "name": name,
                "cat": name.rsplit(".", 1)[0],
                "ph": "X",
                "ts": (start - t0) / 1000,
                "dur": (end - start) / 1000,
                "pid": 1,
                "tid": 1,
                "args": {"trace_id": trace_id, "span_id": span_id, "parent_id": parent_id},
            }
            for name, start, end, span_id, parent_id, trace_id in self.spans
        ]
        text = json.dumps({"traceEvents": events}, separators=(",", ":"))
        path.write_text(text, encoding="utf-8")
