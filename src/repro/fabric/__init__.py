"""Switch fabric substrate: configurations, register file, crossbar, timing."""

from .config import ConfigMatrix
from .crossbar import Crossbar
from .multistage import BenesNetwork, OmegaNetwork, is_power_of_two
from .registers import ConfigRegisterFile
from .timing import FabricTechnology, FabricTiming

__all__ = [
    "ConfigMatrix",
    "Crossbar",
    "BenesNetwork",
    "OmegaNetwork",
    "is_power_of_two",
    "ConfigRegisterFile",
    "FabricTechnology",
    "FabricTiming",
]
