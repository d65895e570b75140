"""Discrete-event simulation substrate (engine, clock, RNG, stats, trace)."""

from .clock import (
    PS_PER_MS,
    PS_PER_NS,
    PS_PER_US,
    byte_time_ps,
    bytes_to_ps,
    ns,
    ps_to_bytes,
    ps_to_ns,
    us,
)
from .engine import Event, Priority, Simulator
from .rng import RngStreams, stream
from .stats import Counter, OnlineStats
from .trace import NULL_TRACER, TraceEvent, Tracer

__all__ = [
    "PS_PER_MS",
    "PS_PER_NS",
    "PS_PER_US",
    "byte_time_ps",
    "bytes_to_ps",
    "ns",
    "ps_to_bytes",
    "ps_to_ns",
    "us",
    "Event",
    "Priority",
    "Simulator",
    "RngStreams",
    "stream",
    "Counter",
    "OnlineStats",
    "NULL_TRACER",
    "TraceEvent",
    "Tracer",
]
