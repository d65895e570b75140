"""Unit tests for core types and system parameters."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.params import PAPER_PARAMS, SystemParams
from repro.types import Connection, Message, MessageRecord


class TestConnection:
    def test_fields(self):
        c = Connection(3, 7)
        assert c.src == 3 and c.dst == 7

    def test_is_tuple(self):
        assert Connection(1, 2) == (1, 2)


class TestMessage:
    def test_remaining_initialised(self):
        m = Message(src=0, dst=1, size=64)
        assert m.remaining == 64

    def test_connection_property(self):
        assert Message(src=2, dst=5, size=8).connection == Connection(2, 5)

    def test_zero_size_rejected(self):
        with pytest.raises(ConfigurationError):
            Message(src=0, dst=1, size=0)

    def test_self_message_rejected(self):
        with pytest.raises(ConfigurationError):
            Message(src=1, dst=1, size=8)

    def test_negative_inject_rejected(self):
        with pytest.raises(ConfigurationError):
            Message(src=0, dst=1, size=8, inject_ps=-5)


class TestMessageRecord:
    def test_latency_and_service(self):
        r = MessageRecord(
            src=0, dst=1, size=64, inject_ps=0, start_ps=100, done_ps=300, seq=0
        )
        assert r.latency_ps == 300
        assert r.service_ps == 200

    def test_time_ordering_enforced(self):
        with pytest.raises(ConfigurationError):
            MessageRecord(
                src=0, dst=1, size=64, inject_ps=50, start_ps=10, done_ps=300, seq=0
            )
        with pytest.raises(ConfigurationError):
            MessageRecord(
                src=0, dst=1, size=64, inject_ps=0, start_ps=100, done_ps=50, seq=0
            )


class TestSystemParams:
    def test_paper_defaults(self):
        p = PAPER_PARAMS
        assert p.n_ports == 128
        assert p.byte_ps == 1250
        assert p.slot_bytes == 80
        assert p.pipe_latency_ps == 120_000  # 10+30+20+0+20+30+10 ns
        assert p.circuit_setup_ps == 240_000
        assert p.wormhole_head_path_ps == 60_000
        assert p.wormhole_exit_path_ps == 60_000

    def test_guard_band_shrinks_slot(self):
        p = PAPER_PARAMS.with_overrides(guard_band_frac=0.05)
        assert p.slot_bytes == 76

    def test_slots_for(self):
        p = PAPER_PARAMS
        assert p.slots_for(1) == 1
        assert p.slots_for(80) == 1
        assert p.slots_for(81) == 2
        assert p.slots_for(2048) == 26

    def test_message_bytes_ps(self):
        assert PAPER_PARAMS.message_bytes_ps(80) == 100_000

    def test_with_overrides_validates(self):
        with pytest.raises(ConfigurationError):
            PAPER_PARAMS.with_overrides(n_ports=1)

    def test_bad_guard_band(self):
        with pytest.raises(ConfigurationError):
            SystemParams(guard_band_frac=1.0)

    def test_worm_flit_divisibility(self):
        with pytest.raises(ConfigurationError):
            SystemParams(worm_max_bytes=100, flit_bytes=8)

    def test_negative_delay_rejected(self):
        with pytest.raises(ConfigurationError):
            SystemParams(cable_ps=-1)

    def test_immutable(self):
        with pytest.raises(Exception):
            PAPER_PARAMS.n_ports = 64  # type: ignore[misc]
