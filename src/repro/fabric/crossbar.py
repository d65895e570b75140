"""The passive crossbar fabric.

The paper's fabric is deliberately dumb: *"a passive fabric with no
buffering or control capabilities"*.  Its entire behaviour is: whatever
configuration matrix is currently loaded into the configuration register
defines which input port is wired to which output port.

:class:`Crossbar` models exactly that — a currently-active
:class:`~repro.fabric.config.ConfigMatrix`, a reconfiguration latency, and
byte-path timing from its :class:`~repro.fabric.timing.FabricTiming`.  All
intelligence lives in the scheduler (:mod:`repro.sched`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ConfigurationError
from ..params import SystemParams
from .config import ConfigMatrix
from .timing import FabricTiming

__all__ = ["Crossbar"]


@dataclass
class Crossbar:
    """A passive N x N crossbar with a single active configuration register.

    The scheduler copies one of its K configuration matrices into
    :attr:`active` at each TDM slot boundary (``apply``); data then flows
    along the established pipes for the rest of the slot.
    """

    params: SystemParams
    timing: FabricTiming
    reconfig_ps: int = 0
    active: ConfigMatrix = field(init=False)
    reconfigurations: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        if self.reconfig_ps < 0:
            raise ConfigurationError("reconfiguration time must be non-negative")
        self.active = ConfigMatrix(self.params.n_ports)

    @property
    def n(self) -> int:
        return self.params.n_ports

    def apply(self, config: ConfigMatrix) -> None:
        """Copy ``config`` into the active configuration register."""
        self.active.load(config)
        self.reconfigurations += 1

    def path_latency_ps(self) -> int:
        """End-to-end byte latency through the fabric (NIC to NIC)."""
        return self.timing.end_to_end_ps(self.params)
