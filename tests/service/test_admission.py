"""Unit tests for the admission-control primitives."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.service.admission import PortQueues, TokenBucket
from repro.service.model import PS_PER_S


def _tokens(bucket: TokenBucket, now_ps: int) -> int:
    """Tokens available at ``now_ps``, after the bucket's own refill."""
    bucket._refill(now_ps)
    return bucket._tokens


class TestTokenBucket:
    def test_starts_full_and_drains(self):
        bucket = TokenBucket(rate_per_s=10.0, burst=3)
        assert [bucket.try_take(0) for _ in range(4)] == [True, True, True, False]
        assert bucket.taken == 3
        assert bucket.denied == 1

    def test_refills_exactly_at_rate(self):
        bucket = TokenBucket(rate_per_s=4.0, burst=8)
        for _ in range(8):
            assert bucket.try_take(0)
        # 4 tokens/s: one token every quarter virtual second
        assert not bucket.try_take(PS_PER_S // 4 - 1)
        assert _tokens(bucket, PS_PER_S // 4) == 1
        assert bucket.try_take(PS_PER_S // 4)
        assert not bucket.try_take(PS_PER_S // 4)

    def test_refill_capped_at_burst(self):
        bucket = TokenBucket(rate_per_s=1_000_000.0, burst=5)
        assert _tokens(bucket, 10 * PS_PER_S) == 5

    def test_fractional_rate_is_exact(self):
        # 1.5 tokens/s: 3 tokens every 2 seconds, no float drift
        bucket = TokenBucket(rate_per_s=1.5, burst=100)
        bucket._tokens = 0
        assert _tokens(bucket, 2 * PS_PER_S) == 3
        assert _tokens(bucket, 4 * PS_PER_S) == 6

    def test_remainder_carries_across_refills(self):
        bucket = TokenBucket(rate_per_s=3.0, burst=100)
        bucket._tokens = 0
        # many tiny steps must gain exactly what one big step would
        step = PS_PER_S // 7
        for i in range(1, 8):
            _tokens(bucket, i * step)
        assert _tokens(bucket, PS_PER_S) == 3

    def test_rate_zero_is_unlimited(self):
        bucket = TokenBucket(rate_per_s=0.0, burst=1)
        assert not bucket.enabled
        assert all(bucket.try_take(0) for _ in range(100))
        assert bucket.denied == 0

    def test_set_rate_refills_at_old_rate_first(self):
        bucket = TokenBucket(rate_per_s=10.0, burst=100)
        bucket._tokens = 0
        bucket.set_rate(PS_PER_S, 1.0)  # 10 tokens accrued before the change
        assert _tokens(bucket, PS_PER_S) == 10
        assert _tokens(bucket, 2 * PS_PER_S) == 11

    @pytest.mark.parametrize("kwargs", [dict(rate_per_s=-1.0, burst=4), dict(rate_per_s=1.0, burst=0)])
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            TokenBucket(**kwargs)

    def test_set_rate_rejects_negative(self):
        bucket = TokenBucket(1.0, 1)
        with pytest.raises(ConfigurationError):
            bucket.set_rate(0, -2.0)


class TestPortQueues:
    def test_bounded_per_port(self):
        queues = PortQueues(n_ports=4, depth=2)
        assert queues.try_enqueue(1)
        assert queues.try_enqueue(1)
        assert not queues.try_enqueue(1)  # port 1 full
        assert queues.try_enqueue(2)  # other ports unaffected
        assert queues.refused == 1
        assert queues.total == 3

    def test_dequeue_frees_capacity(self):
        queues = PortQueues(n_ports=2, depth=1)
        assert queues.try_enqueue(0)
        assert not queues.try_enqueue(0)
        queues.dequeue(0)
        assert queues.try_enqueue(0)
        assert queues.total == 1

    def test_high_water_tracks_peak(self):
        queues = PortQueues(n_ports=2, depth=8)
        for _ in range(5):
            queues.try_enqueue(0)
        for _ in range(5):
            queues.dequeue(0)
        assert queues.high_water == 5
        assert queues.total == 0

    def test_underflow_raises(self):
        queues = PortQueues(n_ports=2, depth=1)
        with pytest.raises(ConfigurationError):
            queues.dequeue(0)

    def test_zero_depth_rejected(self):
        with pytest.raises(ConfigurationError):
            PortQueues(n_ports=2, depth=0)
