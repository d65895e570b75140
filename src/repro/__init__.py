"""repro — a reproduction of *Switch Design to Enable Predictive Multiplexed
Switching in Multiprocessor Networks* (Ding, Hoare, Jones, Li, Shao, Tung,
Zheng, Melhem; IPPS 2005).

The package implements the paper's predictive multiplexed switching system
and everything it is evaluated against:

* :mod:`repro.sched` — the hardware scheduler: pre-scheduling logic
  (Table 1), the SL systolic array (Table 2), TDM counter, priority
  rotation, and the multi-unit / multi-slot extensions;
* :mod:`repro.fabric` — configuration matrices, the K-slot register file,
  the passive crossbar, and multistage-fabric constraints;
* :mod:`repro.networks` — cycle-level simulations of TDM (dynamic /
  preload / hybrid), circuit switching, and wormhole routing;
* :mod:`repro.compiled` — compiled communication: bipartite edge colouring
  of connection sets into configurations, preload programs, working-set
  partitioning;
* :mod:`repro.predict` — the time-out and usage-counter eviction
  predictors and a Markov prefetcher;
* :mod:`repro.traffic` — the paper's workloads (Scatter, Random/Ordered
  Mesh, Two Phase, the Figure-5 hybrid) and extra synthetic patterns;
* :mod:`repro.hw` — the calibrated Table-3 scheduler latency/area model;
* :mod:`repro.experiments` — drivers that regenerate every table and
  figure of the evaluation.

Quick start::

    from repro import PAPER_PARAMS, TdmNetwork, ScatterPattern, measure

    params = PAPER_PARAMS.with_overrides(n_ports=32)
    point = measure(ScatterPattern(32, 64), TdmNetwork(params, k=4))
    print(point.efficiency)
"""

from .errors import (
    ConfigurationError,
    InvariantError,
    ReproError,
    SchedulingError,
    SimulationError,
    TrafficError,
)
from .experiments import (
    DEFAULT_SEED,
    measure,
    run_faults,
    run_figure4,
    run_figure5,
    run_table3,
)
from .fabric import ConfigMatrix, ConfigRegisterFile, Crossbar
from .faults import FaultInjector, FaultKind, FaultSchedule, RetryPolicy
from .networks import (
    CircuitNetwork,
    IdealNetwork,
    RunResult,
    RunSpec,
    TdmNetwork,
    WormholeNetwork,
    build_network,
    run_scheme,
    scheme_names,
)
from .params import PAPER_PARAMS, SystemParams
from .predict import CounterPredictor, NullPredictor, TimeoutPredictor
from .sched import Scheduler
from .traffic import (
    AllToAllPattern,
    HybridPattern,
    OrderedMeshPattern,
    RandomMeshPattern,
    ScatterPattern,
    TwoPhasePattern,
)
from .types import Connection, Message, MessageRecord

__version__ = "1.0.0"

__all__ = [
    "ConfigurationError",
    "InvariantError",
    "ReproError",
    "SchedulingError",
    "SimulationError",
    "TrafficError",
    "DEFAULT_SEED",
    "measure",
    "run_faults",
    "run_figure4",
    "run_figure5",
    "run_table3",
    "FaultInjector",
    "FaultKind",
    "FaultSchedule",
    "RetryPolicy",
    "ConfigMatrix",
    "ConfigRegisterFile",
    "Crossbar",
    "CircuitNetwork",
    "IdealNetwork",
    "RunResult",
    "RunSpec",
    "TdmNetwork",
    "WormholeNetwork",
    "build_network",
    "run_scheme",
    "scheme_names",
    "PAPER_PARAMS",
    "SystemParams",
    "CounterPredictor",
    "NullPredictor",
    "TimeoutPredictor",
    "Scheduler",
    "AllToAllPattern",
    "HybridPattern",
    "OrderedMeshPattern",
    "RandomMeshPattern",
    "ScatterPattern",
    "TwoPhasePattern",
    "Connection",
    "Message",
    "MessageRecord",
    "__version__",
]
