"""Admission control: the token-bucket front door and bounded port queues.

Both structures are pure integer state machines over virtual time, so the
service core stays bit-identical for a fixed seed: the bucket tracks its
refill remainder exactly (token-picoseconds, never floats), and the queue
accounting is plain counters.  Neither structure stores requests — the
core owns the pending map; these own the *bounds* and their bookkeeping.
"""

from __future__ import annotations

from ..errors import ConfigurationError
from .model import PS_PER_S

__all__ = ["TokenBucket", "PortQueues"]

#: bucket rates are fixed-point with this many micro-token units per token
_RATE_SCALE = 1_000_000

#: denominator of the exact refill division (micro-tokens x ps-per-second)
_REFILL_DENOM = PS_PER_S * _RATE_SCALE


class TokenBucket:
    """A deterministic token bucket over integer virtual time.

    ``rate_per_s`` tokens arrive per virtual second (fractional rates are
    held as exact micro-token integers), capped at ``burst``.  A rate of
    zero disables the bucket entirely — every take succeeds — which is the
    "no admission throttling" configuration.
    """

    __slots__ = ("burst", "_rate_micro", "_tokens", "_acc", "_last_ps", "taken", "denied")

    def __init__(self, rate_per_s: float, burst: int) -> None:
        if rate_per_s < 0:
            raise ConfigurationError(f"bucket rate must be >= 0, got {rate_per_s}")
        if burst < 1:
            raise ConfigurationError(f"bucket burst must be >= 1, got {burst}")
        self.burst = burst
        self._rate_micro = round(rate_per_s * _RATE_SCALE)
        self._tokens = burst
        self._acc = 0  # refill remainder in micro-token-picoseconds
        self._last_ps = 0
        self.taken = 0
        self.denied = 0

    @property
    def enabled(self) -> bool:
        return self._rate_micro > 0

    @property
    def rate_per_s(self) -> float:
        return self._rate_micro / _RATE_SCALE

    def _refill(self, now_ps: int) -> None:
        elapsed = now_ps - self._last_ps
        if elapsed < 0:  # pragma: no cover - callers advance monotonically
            raise ConfigurationError("token bucket time went backwards")
        self._last_ps = now_ps
        if not self._rate_micro or not elapsed:
            return
        self._acc += elapsed * self._rate_micro
        gained, self._acc = divmod(self._acc, _REFILL_DENOM)
        if gained:
            self._tokens = min(self.burst, self._tokens + int(gained))

    def try_take(self, now_ps: int) -> bool:
        """Consume one token at ``now_ps``; False when the bucket is dry."""
        if not self.enabled:
            self.taken += 1
            return True
        self._refill(now_ps)
        if self._tokens > 0:
            self._tokens -= 1
            self.taken += 1
            return True
        self.denied += 1
        return False

    def set_rate(self, now_ps: int, rate_per_s: float) -> None:
        """Change the refill rate (the ladder's throttle rung).

        The bucket is refilled at the *old* rate up to ``now_ps`` first, so
        a rate change never rewrites history.
        """
        if rate_per_s < 0:
            raise ConfigurationError(f"bucket rate must be >= 0, got {rate_per_s}")
        self._refill(now_ps)
        self._rate_micro = round(rate_per_s * _RATE_SCALE)
        self._acc = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TokenBucket(rate={self.rate_per_s}/s, burst={self.burst}, "
            f"tokens={self._tokens})"
        )


class PortQueues:
    """Bounded per-source-port admission-queue accounting.

    The service core keeps the actual request objects (keyed by connection
    pair); this tracks how many are queued per *source port* and enforces
    the bound, so one hot-spot source cannot grow state without limit.
    """

    __slots__ = ("depth", "_depths", "high_water", "enqueued", "refused")

    def __init__(self, n_ports: int, depth: int) -> None:
        if depth < 1:
            raise ConfigurationError(f"queue depth must be >= 1, got {depth}")
        self.depth = depth
        self._depths = [0] * n_ports
        #: deepest any port queue has ever been
        self.high_water = 0
        self.enqueued = 0
        self.refused = 0

    def try_enqueue(self, port: int) -> bool:
        """Reserve a queue slot on ``port``; False when it is full."""
        if self._depths[port] >= self.depth:
            self.refused += 1
            return False
        self._depths[port] += 1
        self.enqueued += 1
        if self._depths[port] > self.high_water:
            self.high_water = self._depths[port]
        return True

    def dequeue(self, port: int) -> None:
        """Release one queue slot on ``port`` (grant, shed, or reject)."""
        if self._depths[port] <= 0:
            raise ConfigurationError(f"port {port} queue underflow")
        self._depths[port] -= 1

    @property
    def total(self) -> int:
        """Requests currently queued across every port."""
        return sum(self._depths)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        busy = {p: d for p, d in enumerate(self._depths) if d}
        return f"PortQueues(depth={self.depth}, busy={busy})"
