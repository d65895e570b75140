"""Scheduler substrate: pre-scheduling logic, SL array, TDM counter, scheduler."""

from .constrained import ConstrainedScheduler, FabricConstraint, partition
from .multislot import QueueDepthBoostPolicy
from .multiunit import MultiUnitScheduler
from .presched import PreschedResult, compute_l
from .priority import (
    FixedPriority,
    RandomPriority,
    RotationPolicy,
    RoundRobinPriority,
)
from .scheduler import Scheduler, SchedulerPass
from .slarray import PassOutcome, Toggle, wavefront_reference, wavefront_sparse
from .solstice import schedule_coverage, solstice_schedule
from .tdm import TdmCounter

__all__ = [
    "ConstrainedScheduler",
    "FabricConstraint",
    "partition",
    "QueueDepthBoostPolicy",
    "MultiUnitScheduler",
    "PreschedResult",
    "compute_l",
    "FixedPriority",
    "RandomPriority",
    "RotationPolicy",
    "RoundRobinPriority",
    "Scheduler",
    "SchedulerPass",
    "PassOutcome",
    "Toggle",
    "wavefront_reference",
    "wavefront_sparse",
    "schedule_coverage",
    "solstice_schedule",
    "TdmCounter",
]
