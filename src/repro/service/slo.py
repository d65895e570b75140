"""SLO accounting: windowed and cumulative service-level objectives.

The recorder tracks three SLOs the paper's switch would be operated
against as a shared service:

* **request-to-grant latency** — p50/p99 over each window and the whole
  campaign, exact nearest-rank percentiles over integer picoseconds (no
  estimator, so snapshots are bit-identical for a fixed seed);
* **availability** — granted / (granted + shed); dead-endpoint rejects
  are excluded because no admission policy can serve a dead port (the
  exclusion is part of the SLO definition, see ``docs/service.md``);
* **shed rate** — the fraction of admission decisions in a window that
  shed, which is also the signal the overload ladder steps on.

Snapshots serialise to JSONL with a fixed key order and contain only
virtual-time quantities, so two runs of the same seeded campaign emit
byte-identical files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from ..errors import ConfigurationError
from ..sim.stats import percentile_ps
from .model import Outcome

__all__ = ["SloRecorder", "SloSnapshot"]


@dataclass(slots=True, frozen=True)
class SloSnapshot:
    """One closed SLO window (all times in integer virtual picoseconds)."""

    t_ps: int
    window_ps: int
    level: str
    arrivals: int
    granted: int
    shed: int
    rejected_dead: int
    released: int
    p50_grant_ps: int
    p99_grant_ps: int
    shed_rate: float
    availability: float
    queued: int
    cum_arrivals: int
    cum_granted: int
    cum_shed: int
    cum_availability: float
    fabric: dict[str, int] = field(default_factory=dict)

    def to_json(self) -> str:
        """Serialise with a fixed key order (dataclass field order)."""
        payload = {
            "t_ps": self.t_ps,
            "window_ps": self.window_ps,
            "level": self.level,
            "arrivals": self.arrivals,
            "granted": self.granted,
            "shed": self.shed,
            "rejected_dead": self.rejected_dead,
            "released": self.released,
            "p50_grant_ps": self.p50_grant_ps,
            "p99_grant_ps": self.p99_grant_ps,
            "shed_rate": round(self.shed_rate, 6),
            "availability": round(self.availability, 6),
            "queued": self.queued,
            "cum_arrivals": self.cum_arrivals,
            "cum_granted": self.cum_granted,
            "cum_shed": self.cum_shed,
            "cum_availability": round(self.cum_availability, 6),
            "fabric": {k: self.fabric[k] for k in sorted(self.fabric)},
        }
        return json.dumps(payload, separators=(",", ":"))


class SloRecorder:
    """Windowed + cumulative SLO counters for one service instance."""

    def __init__(self, window_ps: int) -> None:
        if window_ps <= 0:
            raise ConfigurationError(f"SLO window must be positive, got {window_ps}")
        self.window_ps = window_ps
        self.snapshots: list[SloSnapshot] = []
        # current window
        self._w_arrivals = 0
        self._w_granted = 0
        self._w_shed = 0
        self._w_shed_pressure = 0
        self._w_rejected = 0
        self._w_released = 0
        self._w_latencies: list[int] = []
        # campaign totals
        self.arrivals = 0
        self.granted = 0
        self.shed = 0
        self.rejected_dead = 0
        self.released = 0
        self.shed_by_outcome: dict[str, int] = {}
        self.latencies_ps: list[int] = []

    # -- feeding ------------------------------------------------------------------

    def note_arrival(self) -> None:
        self._w_arrivals += 1
        self.arrivals += 1

    def note_grant(self, latency_ps: int) -> None:
        self._w_granted += 1
        self.granted += 1
        self._w_latencies.append(latency_ps)
        self.latencies_ps.append(latency_ps)

    def note_shed(self, outcome: Outcome) -> None:
        if not outcome.is_shed:
            raise ConfigurationError(f"{outcome} is not a shed outcome")
        self._w_shed += 1
        self.shed += 1
        if outcome is not Outcome.SHED_THROTTLE:
            # throttle sheds are the front door *working*; the rest are
            # overload it failed to absorb (the ladder's pressure signal)
            self._w_shed_pressure += 1
        key = outcome.value
        self.shed_by_outcome[key] = self.shed_by_outcome.get(key, 0) + 1

    def note_reject_dead(self) -> None:
        self._w_rejected += 1
        self.rejected_dead += 1

    def note_release(self) -> None:
        self._w_released += 1
        self.released += 1

    # -- windows ------------------------------------------------------------------

    @property
    def window_pressure_rate(self) -> float:
        """Window shed rate *excluding* throttle sheds — the ladder's signal.

        Counting throttle sheds here would create a positive feedback
        loop: stepping down lowers the bucket rate, which manufactures
        throttle sheds, which would read as more overload, pinning the
        service at BEST_EFFORT long after the storm passed.
        """
        decisions = self._w_granted + self._w_shed_pressure
        return self._w_shed_pressure / decisions if decisions else 0.0

    @property
    def window_dirty(self) -> bool:
        """Did anything at all happen in the open window?"""
        return bool(
            self._w_arrivals
            or self._w_granted
            or self._w_shed
            or self._w_rejected
            or self._w_released
        )

    def close_window(
        self, t_ps: int, level: str, *, queued: int, fabric: dict[str, int]
    ) -> SloSnapshot:
        """Seal the open window into a snapshot and reset window state."""
        lat = sorted(self._w_latencies)
        decisions = self._w_granted + self._w_shed
        snap = SloSnapshot(
            t_ps=t_ps,
            window_ps=self.window_ps,
            level=level,
            arrivals=self._w_arrivals,
            granted=self._w_granted,
            shed=self._w_shed,
            rejected_dead=self._w_rejected,
            released=self._w_released,
            p50_grant_ps=percentile_ps(lat, 50),
            p99_grant_ps=percentile_ps(lat, 99),
            shed_rate=self._w_shed / decisions if decisions else 0.0,
            availability=self._w_granted / decisions if decisions else 1.0,
            queued=queued,
            cum_arrivals=self.arrivals,
            cum_granted=self.granted,
            cum_shed=self.shed,
            cum_availability=self.availability,
            fabric=dict(fabric),
        )
        self.snapshots.append(snap)
        self._w_arrivals = 0
        self._w_granted = 0
        self._w_shed = 0
        self._w_shed_pressure = 0
        self._w_rejected = 0
        self._w_released = 0
        self._w_latencies = []
        return snap

    # -- campaign-level readouts ------------------------------------------------------

    @property
    def availability(self) -> float:
        decisions = self.granted + self.shed
        return self.granted / decisions if decisions else 1.0

    @property
    def shed_rate(self) -> float:
        decisions = self.granted + self.shed
        return self.shed / decisions if decisions else 0.0

    def latency_percentiles(self) -> tuple[int, int]:
        """Campaign-wide (p50, p99) request-to-grant latency."""
        lat = sorted(self.latencies_ps)
        return percentile_ps(lat, 50), percentile_ps(lat, 99)

    def write_jsonl(self, path: str | Path) -> int:
        """Write every snapshot as one JSON object per line; returns count."""
        out = Path(path)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(self.to_jsonl(), encoding="utf-8")
        return len(self.snapshots)

    def to_jsonl(self, snapshots: Iterable[SloSnapshot] | None = None) -> str:
        snaps = self.snapshots if snapshots is None else list(snapshots)
        return "".join(s.to_json() + "\n" for s in snaps)
