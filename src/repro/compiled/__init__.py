"""Compiled communication: connection-set compilation and preload programs."""

from .coloring import connection_degree, decompose, edge_color, verify_coloring
from .directives import PreloadProgram
from .frontend import (
    CompiledPhase,
    CompiledSchedule,
    Comm,
    Gather,
    Loop,
    Scatter,
    Seq,
    Shift,
    Stencil,
    Unknown,
    compile_program,
)
from .patterns import StaticPattern
from .phases import working_set_series

__all__ = [
    "connection_degree",
    "decompose",
    "edge_color",
    "verify_coloring",
    "PreloadProgram",
    "CompiledPhase",
    "CompiledSchedule",
    "Comm",
    "Gather",
    "Loop",
    "Scatter",
    "Seq",
    "Shift",
    "Stencil",
    "Unknown",
    "compile_program",
    "StaticPattern",
    "working_set_series",
]
