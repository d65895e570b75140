"""Deterministic fault timelines.

A :class:`FaultSchedule` is the *entire* randomness of a fault campaign,
materialised up front: a sorted tuple of :class:`~repro.faults.model.FaultEvent`
drawn from the named RNG stream ``stream(seed, "faults")`` of
:mod:`repro.sim.rng`.  Because the schedule is generated before the
simulation starts and the injector consumes it in order, the same
``(seed, rate, horizon, system shape)`` always yields the bit-identical
fault timeline — across runs, across switching schemes, and across
refactors of the simulators themselves.  That is what makes degradation
numbers comparable between schemes: every scheme faces the *same* storm.

Fault arrivals form a Poisson process of the requested rate; kinds are
drawn from a weight table; locations (ports, slots, connections) are
uniform; transient-outage durations are exponential.  All times are exact
integer picoseconds (see :mod:`repro.sim.clock`).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigurationError
from ..sim.clock import PS_PER_US, ns
from ..sim.rng import stream
from .model import DEFAULT_WEIGHTS, FaultEvent, FaultKind

__all__ = ["FaultSchedule"]

#: RNG stream name — deliberately disjoint from the traffic streams so a
#: fault campaign never perturbs the workload realisation.
STREAM_NAME = "faults"


@dataclass(slots=True, frozen=True)
class FaultSchedule:
    """An immutable, time-sorted fault timeline."""

    events: tuple[FaultEvent, ...]

    def __post_init__(self) -> None:
        times = [e.time_ps for e in self.events]
        if times != sorted(times):
            raise ConfigurationError("fault schedule events must be time-sorted")

    def __len__(self) -> int:
        return len(self.events)

    def __bool__(self) -> bool:
        return bool(self.events)

    @classmethod
    def generate(
        cls,
        *,
        seed: int,
        rate_per_us: float,
        horizon_ps: int,
        n_ports: int,
        k: int,
        weights: dict[FaultKind, float] | None = None,
        mean_transient_ps: int = ns(2_000),
    ) -> FaultSchedule:
        """Draw a Poisson fault timeline over ``[0, horizon_ps]``.

        ``rate_per_us`` is the aggregate arrival rate of faults of *all*
        kinds; ``weights`` splits it between kinds (kinds absent from the
        table are never drawn).  A rate of zero yields the empty schedule —
        the canonical "faults configured but disabled" campaign, which the
        injector treats as complete inactivity.
        """
        if rate_per_us < 0:
            raise ConfigurationError(f"fault rate must be >= 0, got {rate_per_us}")
        if horizon_ps < 0:
            raise ConfigurationError(f"fault horizon must be >= 0, got {horizon_ps}")
        if rate_per_us == 0 or horizon_ps == 0:
            return cls(events=())

        table = weights if weights is not None else DEFAULT_WEIGHTS
        kinds = [kind for kind, w in table.items() if w > 0]
        if not kinds:
            raise ConfigurationError("fault kind weight table is all zeros")
        total = sum(table[kind] for kind in kinds)
        probs = [table[kind] / total for kind in kinds]

        gen = stream(seed, STREAM_NAME)
        mean_gap_ps = PS_PER_US / rate_per_us
        events: list[FaultEvent] = []
        t = 0
        while True:
            t += max(1, round(float(gen.exponential(mean_gap_ps))))
            if t > horizon_ps:
                break
            kind = kinds[int(gen.choice(len(kinds), p=probs))]
            port = slot = src = dst = -1
            duration_ps = 0
            if kind in (FaultKind.LINK_TRANSIENT, FaultKind.LINK_FAIL):
                port = int(gen.integers(n_ports))
                if kind is FaultKind.LINK_TRANSIENT:
                    duration_ps = max(
                        1, round(float(gen.exponential(mean_transient_ps)))
                    )
            elif kind in (FaultKind.REG_STUCK, FaultKind.REG_CORRUPT):
                slot = int(gen.integers(k))
            else:  # REQ_DROP, SL_DEAD — pick a connection (u, v), u != v
                src = int(gen.integers(n_ports))
                dst = int(gen.integers(n_ports - 1))
                if dst >= src:
                    dst += 1
            events.append(
                FaultEvent(
                    time_ps=t,
                    kind=kind,
                    port=port,
                    slot=slot,
                    src=src,
                    dst=dst,
                    duration_ps=duration_ps,
                )
            )
        return cls(events=tuple(events))
