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

__all__ = ["OnlineStats", "Histogram", "Counter", "percentile_ps"]


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
    """Welford mean/variance plus min/max, in one pass.

    Works on ints or floats; all derived quantities are floats.
    """

    count: int = 0
    mean: float = 0.0
    _m2: float = 0.0
    minimum: float = math.inf
    maximum: float = -math.inf
    total: float = 0.0

    def add(self, x: float) -> None:
        self.count += 1
        self.total += x
        delta = x - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (x - self.mean)
        if x < self.minimum:
            self.minimum = x
        if x > self.maximum:
            self.maximum = x

    def merge(self, other: "OnlineStats") -> None:
        """Fold another accumulator into this one (Chan's parallel update)."""
        if other.count == 0:
            return
        if self.count == 0:
            self.count = other.count
            self.mean = other.mean
            self._m2 = other._m2
            self.minimum = other.minimum
            self.maximum = other.maximum
            self.total = other.total
            return
        n = self.count + other.count
        delta = other.mean - self.mean
        self._m2 += other._m2 + delta * delta * self.count * other.count / n
        self.mean += delta * other.count / n
        self.count = n
        self.total += other.total
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)

    @property
    def variance(self) -> float:
        """Population variance (0 for fewer than two samples)."""
        return self._m2 / self.count if self.count > 1 else 0.0

    @property
    def stddev(self) -> float:
        return math.sqrt(self.variance)

    def __len__(self) -> int:
        return self.count


@dataclass(slots=True)
class Histogram:
    """Fixed-width bin histogram over ``[0, bin_width * n_bins)``.

    Samples beyond the last bin land in an overflow bucket; totals and the
    ability to compute approximate quantiles are preserved.
    """

    bin_width: float
    n_bins: int
    counts: list[int] = field(default_factory=list)
    overflow: int = 0
    _stats: OnlineStats = field(default_factory=OnlineStats)
    _width_exact: Fraction = field(init=False)

    def __post_init__(self) -> None:
        if self.bin_width <= 0 or self.n_bins <= 0:
            raise ConfigurationError("histogram needs positive bin width and count")
        if not self.counts:
            self.counts = [0] * self.n_bins
        self._width_exact = Fraction(str(self.bin_width))

    def _bin_index(self, x: float) -> int:
        """Exact bin index for a non-negative sample.

        Both the sample and the bin width go through their decimal strings,
        so boundary samples land in the upper bin (0.3 with width 0.1 is
        bin 3 — float ``0.3 // 0.1`` would say 2).
        """
        if isinstance(x, int) and self._width_exact.denominator == 1:
            return x // self._width_exact.numerator
        return int(Fraction(str(x)) / self._width_exact)

    def add(self, x: float) -> None:
        if x < 0:
            raise ConfigurationError("histogram samples must be non-negative")
        idx = self._bin_index(x)
        if idx >= self.n_bins:
            self.overflow += 1
        else:
            self.counts[idx] += 1
        self._stats.add(x)

    @property
    def count(self) -> int:
        return self._stats.count

    @property
    def mean(self) -> float:
        return self._stats.mean

    def quantile(self, q: float) -> float:
        """Approximate quantile (bin upper edge).  ``q`` in [0, 1].

        ``q = 0`` returns the exact observed minimum: ``seen >= target`` is
        vacuously true at target 0, which would otherwise report the first
        bin's upper edge even when that bin is empty.
        """
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError(f"quantile must be in [0,1], got {q}")
        if self.count == 0:
            return 0.0
        if q == 0.0:
            return self._stats.minimum
        # Exact rational target rank: float ``q * count`` can overshoot an
        # integer boundary (0.3 * 10 == 3.0000000000000004) and skip a bin.
        target = Fraction(str(q)) * self.count
        seen = 0
        for i, c in enumerate(self.counts):
            seen += c
            if seen >= target:
                return (i + 1) * self.bin_width
        # The target rank lies beyond every bin, so it falls in the overflow
        # bucket [n_bins * bin_width, maximum]; the observed maximum is that
        # bucket's exact upper edge.
        seen += self.overflow
        assert seen >= target, "quantile target beyond all recorded samples"
        return self._stats.maximum


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
