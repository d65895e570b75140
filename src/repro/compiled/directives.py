"""Compiled preload programs.

Section 4, extensions 4 and 5: the NIC request signals can be augmented to
(4) ask the scheduler to **flush** all established connections — the
compiler inserts this between program regions with different communication
patterns (Section 3.3) — and (5) to transmit **pre-defined configurations**
to load into (or evict from) specific configuration registers.  The TDM
network's ``flush_on_phase`` option issues the flush at every phase
boundary.

A :class:`PreloadProgram` is the compiled artifact: per program phase, an
ordered list of configuration *batches* sized to the preload register
budget.  The TDM network plays it: load batch 0 at phase entry (after an
optional flush), and advance to the next batch when the connections of the
current one have drained.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ConfigurationError
from ..fabric.config import ConfigMatrix
from ..types import Connection
from .patterns import StaticPattern

__all__ = ["PreloadProgram"]


@dataclass
class PreloadProgram:
    """The compiled preload schedule for one phase.

    ``batches[i]`` is the i-th group of configurations; each group fits the
    ``k_preload`` pinned registers.  ``covered`` is the union of all
    connections in the program (the statically-served traffic).
    """

    n: int
    k_preload: int
    batches: list[list[ConfigMatrix]] = field(default_factory=list)

    def __post_init__(self) -> None:
        for batch in self.batches:
            if len(batch) > self.k_preload:
                raise ConfigurationError(
                    f"batch of {len(batch)} exceeds k_preload={self.k_preload}"
                )
            for cfg in batch:
                if cfg.n != self.n:
                    raise ConfigurationError("configuration size mismatch")

    @classmethod
    def compile(
        cls, pattern: StaticPattern, k_preload: int
    ) -> "PreloadProgram":
        """Compile a static pattern into a batched preload program."""
        if k_preload < 1:
            raise ConfigurationError("k_preload must be at least 1")
        return cls(
            n=pattern.n,
            k_preload=k_preload,
            batches=pattern.compile_batched(k_preload),
        )

    @property
    def n_batches(self) -> int:
        return len(self.batches)

    @property
    def covered(self) -> set[Connection]:
        out: set[Connection] = set()
        for batch in self.batches:
            for cfg in batch:
                out.update(cfg.connections())
        return out

    def batch_connections(self, index: int) -> set[Connection]:
        """Connections served while batch ``index`` is loaded."""
        out: set[Connection] = set()
        for cfg in self.batches[index]:
            out.update(cfg.connections())
        return out
