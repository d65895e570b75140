"""Online statistics accumulators used by the network models.

The simulators stream per-message and per-slot observations through these
accumulators instead of storing raw samples, which keeps memory flat for
multi-millisecond runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from ..errors import ConfigurationError

__all__ = ["OnlineStats", "Counter", "percentile_ps"]


def percentile_ps(sorted_values: list[int], q: float) -> int:
    """Exact nearest-rank percentile of pre-sorted integers (-1 if empty).

    The one percentile definition of the package: batch latency and
    recovery digests and the service's SLO windows all report it over
    integer picoseconds.
    """
    if not sorted_values:
        return -1
    try:
        exact_q = Fraction(str(q))
    except ValueError:
        raise ConfigurationError(f"percentile must be in (0, 100], got {q}") from None
    if not 0 < exact_q <= 100:
        raise ConfigurationError(f"percentile must be in (0, 100], got {q}")
    # ceil(n * q / 100) in exact integer arithmetic; q goes through its
    # decimal string so 99.9 means 999/10, not the nearest binary float.
    num = len(sorted_values) * exact_q.numerator
    den = 100 * exact_q.denominator
    rank = -(-num // den)
    return sorted_values[rank - 1]


@dataclass(slots=True)
class OnlineStats:
    """Running mean, total and min/max, in one pass.

    Works on ints or floats; the mean is a float.
    """

    count: int = 0
    mean: float = 0.0
    minimum: float = math.inf
    maximum: float = -math.inf
    total: float = 0.0

    def add(self, x: float) -> None:
        self.count += 1
        self.total += x
        self.mean += (x - self.mean) / self.count
        if x < self.minimum:
            self.minimum = x
        if x > self.maximum:
            self.maximum = x

    def __len__(self) -> int:
        return self.count


@dataclass(slots=True)
class Counter:
    """A named bag of integer counters with dict-like access."""

    values: dict[str, int] = field(default_factory=dict)

    def inc(self, name: str, by: int = 1) -> None:
        self.values[name] = self.values.get(name, 0) + by

    def __getitem__(self, name: str) -> int:
        return self.values.get(name, 0)

    def as_dict(self) -> dict[str, int]:
        return dict(self.values)
