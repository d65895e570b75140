"""Seeded open-loop workload generators for the service layer.

Three arrival mixes, all materialised up front from a named RNG stream
(:func:`repro.sim.rng.stream`), so a campaign is a pure function of
``(spec, seed)``:

* ``poisson`` — open-loop Poisson arrivals at a constant rate, the
  classic offered-load model;
* ``bursty`` — on/off modulated Poisson (rate high during ``on_ps``,
  zero during ``off_ps``), the pattern token buckets are built for;
* ``hotspot`` — an adversarial mix where a fraction of arrivals targets
  a handful of hot destination ports, starving their queues first.

Time-varying rates (the on/off envelope and the configured *overload
bursts*) are realised by thinning a homogeneous Poisson process at the
peak rate, the standard exact method — no discretisation error, and the
draw sequence is identical for a fixed seed regardless of how the rate
envelope slices the horizon.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

from ..errors import ConfigurationError
from ..sim.rng import stream
from .model import PS_PER_S

__all__ = ["Arrival", "WorkloadSpec", "predicted_pairs"]

_KINDS = ("poisson", "bursty", "hotspot")


@dataclass(slots=True, frozen=True)
class Arrival:
    """One lease request arriving at the service front door."""

    time_ps: int
    src: int
    dst: int
    hold_ps: int


@dataclass(slots=True, frozen=True)
class WorkloadSpec:
    """A seeded arrival process over one campaign horizon."""

    #: arrival mix: "poisson", "bursty", or "hotspot"
    kind: str
    n_ports: int
    #: offered arrival rate (requests per virtual second, whole fabric)
    rate_per_s: float
    #: mean circuit-lease duration (exponentially distributed)
    mean_hold_ps: int
    #: campaign horizon — no arrivals at or beyond this time
    duration_ps: int
    #: bursty mix: on/off envelope period halves
    on_ps: int = 0
    off_ps: int = 0
    #: hotspot mix: fraction of arrivals aimed at the hot ports
    hotspot_fraction: float = 0.5
    #: hotspot mix: how many destination ports are hot
    n_hot: int = 1
    #: overload bursts: (start_ps, end_ps, rate multiplier) intervals
    overload: tuple[tuple[int, int, float], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ConfigurationError(
                f"unknown workload kind {self.kind!r}; expected one of {_KINDS}"
            )
        if self.n_ports < 2:
            raise ConfigurationError("a workload needs at least 2 ports")
        if self.rate_per_s <= 0:
            raise ConfigurationError(f"arrival rate must be positive, got {self.rate_per_s}")
        if self.mean_hold_ps <= 0:
            raise ConfigurationError(f"mean hold must be positive, got {self.mean_hold_ps}")
        if self.duration_ps <= 0:
            raise ConfigurationError(f"duration must be positive, got {self.duration_ps}")
        if self.kind == "bursty" and (self.on_ps <= 0 or self.off_ps < 0):
            raise ConfigurationError("bursty workloads need on_ps > 0 and off_ps >= 0")
        if self.kind == "hotspot":
            if not 0.0 <= self.hotspot_fraction <= 1.0:
                raise ConfigurationError("hotspot fraction must be in [0, 1]")
            if not 1 <= self.n_hot < self.n_ports:
                raise ConfigurationError(
                    f"n_hot must be in [1, {self.n_ports - 1}], got {self.n_hot}"
                )
        for start, end, mult in self.overload:
            if not 0 <= start < end:
                raise ConfigurationError(f"bad overload interval [{start}, {end})")
            if mult <= 0:
                raise ConfigurationError(f"overload multiplier must be positive, got {mult}")

    # -- the rate envelope -----------------------------------------------------------

    def _envelope(self, t_ps: int) -> float:
        """Instantaneous rate multiplier at ``t_ps`` (1.0 = base rate)."""
        mult = 1.0
        if self.kind == "bursty":
            period = self.on_ps + self.off_ps
            mult = 1.0 if (t_ps % period) < self.on_ps else 0.0
        for start, end, m in self.overload:
            if start <= t_ps < end:
                mult *= m
        return mult

    def _peak_multiplier(self) -> float:
        peak = 1.0
        for _, _, m in self.overload:
            if m > 1.0:
                peak *= m  # conservative: overlapping bursts multiply
        return peak

    # -- generation --------------------------------------------------------------------

    def generate(self, seed: int) -> tuple[Arrival, ...]:
        """Materialise the full arrival sequence (sorted by time)."""
        rng = stream(seed, f"svc-workload-{self.kind}")
        rate_peak_per_ps = self.rate_per_s * self._peak_multiplier() / PS_PER_S
        arrivals: list[Arrival] = []
        t = 0.0
        while True:
            t += rng.exponential(1.0 / rate_peak_per_ps)
            t_ps = int(t)
            if t_ps >= self.duration_ps:
                break
            keep = rng.random()  # drawn unconditionally: one draw per candidate
            envelope = self._envelope(t_ps)
            if envelope <= 0.0:
                continue
            if keep * self._peak_multiplier() >= envelope:
                continue
            src, dst = self._draw_pair(rng)
            hold = max(1, int(rng.exponential(float(self.mean_hold_ps))))
            arrivals.append(Arrival(time_ps=t_ps, src=src, dst=dst, hold_ps=hold))
        return tuple(arrivals)

    def _draw_pair(self, rng) -> tuple[int, int]:
        n = self.n_ports
        if self.kind == "hotspot" and rng.random() < self.hotspot_fraction:
            dst = int(rng.integers(0, self.n_hot))
            src = int(rng.integers(0, n - 1))
            if src >= dst:
                src += 1  # uniform over ports != dst
            return src, dst
        src = int(rng.integers(0, n))
        dst = int(rng.integers(0, n - 1))
        if dst >= src:
            dst += 1
        return src, dst


def predicted_pairs(
    arrivals: Iterable[Arrival] | Sequence[Arrival], count: int
) -> tuple[tuple[int, int], ...]:
    """The ``count`` most frequent (src, dst) pairs, most frequent first.

    This is the service's stand-in for the paper's traffic predictor: the
    pairs a prediction oracle would preload.  Ties break on (src, dst) so
    the result is deterministic.
    """
    if count <= 0:
        return ()
    freq: Counter[tuple[int, int]] = Counter()
    for a in arrivals:
        freq[(a.src, a.dst)] += 1
    ranked = sorted(freq.items(), key=lambda kv: (-kv[1], kv[0]))
    return tuple(pair for pair, _ in ranked[:count])
