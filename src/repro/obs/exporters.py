"""Trace exporters: JSONL, CSV, and Chrome/Perfetto timeline format.

All exporters accept either a :class:`~repro.sim.trace.Tracer`, an iterable
of :class:`~repro.sim.trace.TraceEvent`, or a list of :class:`TracedRun`
(one labelled run per switching scheme, so a whole Figure-4 comparison fits
in one file).

The Chrome exporter emits the legacy JSON trace format that both
``chrome://tracing`` and https://ui.perfetto.dev load directly: one
*process* per run (named after its scheme), one *thread* per source port
plus dedicated threads for the TDM slots and the scheduler, complete
(``ph: "X"``) events for message / connection / recovery spans derived via
:data:`repro.obs.events.SPAN_RULES`, and instant events for everything
else.  Timestamps convert from integer picoseconds to the format's
microseconds.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable

from ..sim.trace import TraceEvent, Tracer
from .events import CATEGORIES, SPAN_RULES, Kind

__all__ = [
    "TracedRun",
    "Span",
    "derive_spans",
    "to_jsonl",
    "from_jsonl",
    "to_csv",
    "to_chrome_trace",
]


@dataclass(slots=True)
class TracedRun:
    """One traced simulation run, labelled for multi-run exports."""

    label: str
    events: list[TraceEvent]
    #: optional run counters (e.g. ``RunResult.counters``) archived alongside
    counters: dict[str, int] = field(default_factory=dict)


EventSource = "Tracer | Iterable[TraceEvent] | list[TracedRun]"


def _as_runs(source: Any, label: str = "run") -> list[TracedRun]:
    if isinstance(source, TracedRun):
        return [source]
    if isinstance(source, Tracer):
        return [TracedRun(label, list(source.events()))]
    source = list(source)
    if source and isinstance(source[0], TracedRun):
        return source
    return [TracedRun(label, source)]


# -- spans ----------------------------------------------------------------------


@dataclass(slots=True, frozen=True)
class Span:
    """A derived begin/end interval (message, connection, or recovery)."""

    name: str
    category: str
    start_ps: int
    end_ps: int
    key: tuple
    args: dict[str, Any]
    #: True when no end event was recorded (closed at trace end)
    open: bool = False

    @property
    def duration_ps(self) -> int:
        return self.end_ps - self.start_ps


def derive_spans(events: Iterable[TraceEvent]) -> list[Span]:
    """Pair point events into spans per :data:`~repro.obs.events.SPAN_RULES`.

    Events must be in record order (tracers preserve it).  Spans still
    open when the trace ends are closed at the last recorded timestamp and
    flagged ``open=True``.
    """
    begin_of = {rule.begin: rule for rule in SPAN_RULES}
    end_of: dict[str, list] = {}
    for rule in SPAN_RULES:
        for kind in rule.end:
            end_of.setdefault(kind, []).append(rule)
    opened: dict[tuple, tuple] = {}  # (rule.name, key) -> (start_ps, payload)
    spans: list[Span] = []
    last_ps = 0
    for ev in events:
        last_ps = max(last_ps, ev.time_ps)
        rule = begin_of.get(ev.kind)
        if rule is not None:
            key = (rule.name,) + tuple(ev.payload.get(k) for k in rule.keys)
            opened.setdefault(key, (ev.time_ps, ev.payload))
        for rule in end_of.get(ev.kind, ()):
            key = (rule.name,) + tuple(ev.payload.get(k) for k in rule.keys)
            start = opened.pop(key, None)
            if start is not None:
                args = dict(start[1])
                args["end"] = ev.kind
                spans.append(
                    Span(rule.name, rule.category, start[0], ev.time_ps, key, args)
                )
    for key, (start_ps, payload) in opened.items():
        rule = next(r for r in SPAN_RULES if r.name == key[0])
        spans.append(
            Span(
                rule.name,
                rule.category,
                start_ps,
                max(last_ps, start_ps),
                key,
                dict(payload),
                open=True,
            )
        )
    spans.sort(key=lambda s: (s.start_ps, s.end_ps))
    return spans


# -- JSONL ----------------------------------------------------------------------


def to_jsonl(source: Any, path: str | Path, label: str = "run") -> int:
    """Write one JSON object per event; returns the number of lines.

    Each line carries ``{"t": time_ps, "kind": ..., "run": label, ...payload}``
    with payload fields inlined, so the file greps and streams well.
    """
    n = 0
    with open(path, "w") as fp:
        for run in _as_runs(source, label):
            for ev in run.events:
                obj = {"t": ev.time_ps, "kind": ev.kind, "run": run.label}
                obj.update(ev.payload)
                fp.write(json.dumps(obj, separators=(",", ":")) + "\n")
                n += 1
    return n


def from_jsonl(path: str | Path) -> dict[str, list[TraceEvent]]:
    """Read a :func:`to_jsonl` file back into events grouped by run label."""
    runs: dict[str, list[TraceEvent]] = {}
    with open(path) as fp:
        for line in fp:
            line = line.strip()
            if not line:
                continue
            obj = json.loads(line)
            t = obj.pop("t")
            kind = obj.pop("kind")
            run = obj.pop("run", "run")
            runs.setdefault(run, []).append(TraceEvent(t, kind, obj))
    return runs


# -- CSV ------------------------------------------------------------------------


def to_csv(source: Any, path: str | Path, label: str = "run") -> int:
    """Write events as CSV with a union-of-payload-keys header."""
    runs = _as_runs(source, label)
    keys: list[str] = []
    seen = set()
    for run in runs:
        for ev in run.events:
            for k in ev.payload:
                if k not in seen:
                    seen.add(k)
                    keys.append(k)
    keys.sort()
    n = 0
    with open(path, "w") as fp:
        fp.write(",".join(["time_ps", "kind", "run"] + keys) + "\n")
        for run in runs:
            for ev in run.events:
                row = [str(ev.time_ps), ev.kind, run.label]
                row += [str(ev.payload.get(k, "")) for k in keys]
                fp.write(",".join(row) + "\n")
                n += 1
    return n


# -- Chrome trace ---------------------------------------------------------------

_PS_PER_US = 1_000_000.0

#: thread-id bases within one process (ports occupy 0 .. n-1)
_TID_SLOTS = 1000  # slot s -> 1000 + s
_TID_SCHEDULER = 900
_TID_CONTROL = 990


def _instant_tid(ev: TraceEvent) -> int:
    p = ev.payload
    if ev.kind in (Kind.SL_PASS, Kind.SLOT_TRANSFER, Kind.PRELOAD_BATCH):
        slot = p.get("slot", p.get("index"))
        if ev.kind == Kind.SL_PASS:
            return _TID_SCHEDULER
        return _TID_SLOTS + int(slot) if slot is not None else _TID_CONTROL
    if "slot" in p and ev.kind.startswith("fault-slot"):
        return _TID_SLOTS + int(p["slot"])
    if "src" in p:
        return int(p["src"])
    if "port" in p:
        return int(p["port"])
    return _TID_CONTROL


def _span_tid(span: Span) -> int:
    src = span.args.get("src")
    return int(src) if src is not None else _TID_CONTROL


def to_chrome_trace(
    source: Any,
    path: str | Path,
    label: str = "run",
) -> dict[str, int]:
    """Write a Chrome/Perfetto JSON trace; returns per-category counts.

    One process per run (named after its label), message/connection/
    recovery spans as complete events, everything else as instants.
    """
    trace: list[dict[str, Any]] = []
    counts = {"runs": 0, "spans": 0, "instants": 0}
    for pid, run in enumerate(_as_runs(source, label), start=1):
        counts["runs"] += 1
        trace.append(
            {
                "ph": "M",
                "pid": pid,
                "name": "process_name",
                "args": {"name": run.label},
            }
        )
        tids: dict[int, str] = {}

        def thread_name(tid: int) -> None:
            if tid in tids:
                return
            if tid < _TID_SCHEDULER:
                name = f"port {tid}"
            elif tid == _TID_SCHEDULER:
                name = "scheduler"
            elif tid == _TID_CONTROL:
                name = "control"
            else:
                name = f"slot {tid - _TID_SLOTS}"
            tids[tid] = name

        spans = derive_spans(run.events)
        for span in spans:
            tid = _span_tid(span)
            thread_name(tid)
            src, dst = span.args.get("src"), span.args.get("dst")
            trace.append(
                {
                    "ph": "X",
                    "pid": pid,
                    "tid": tid,
                    "name": f"{span.name} {src}->{dst}",
                    "cat": span.category,
                    "ts": span.start_ps / _PS_PER_US,
                    "dur": span.duration_ps / _PS_PER_US,
                    "args": span.args,
                }
            )
            counts["spans"] += 1
        span_kinds = {rule.begin for rule in SPAN_RULES}
        for rule in SPAN_RULES:
            span_kinds.update(rule.end)
        for ev in run.events:
            if ev.kind in span_kinds:
                continue  # already represented by a span boundary
            tid = _instant_tid(ev)
            thread_name(tid)
            trace.append(
                {
                    "ph": "i",
                    "pid": pid,
                    "tid": tid,
                    "name": ev.kind,
                    "cat": CATEGORIES.get(ev.kind, "misc"),
                    "ts": ev.time_ps / _PS_PER_US,
                    "s": "t",
                    "args": dict(ev.payload),
                }
            )
            counts["instants"] += 1
        for tid, name in sorted(tids.items()):
            trace.append(
                {
                    "ph": "M",
                    "pid": pid,
                    "tid": tid,
                    "name": "thread_name",
                    "args": {"name": name},
                }
            )
    with open(path, "w") as fp:
        json.dump({"traceEvents": trace, "displayTimeUnit": "ns"}, fp)
    return counts
