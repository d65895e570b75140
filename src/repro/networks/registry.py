"""The single registry every switching-scheme construction resolves through.

The paper's contribution is a *comparison* of switching schemes over one
physical plant, and the codebase kept re-encoding that comparison as
hand-rolled ``lambda``-dicts and if/elif chains — one per experiment
module, CLI path, and benchmark.  This module replaces all of them:

* :func:`register_scheme` declares a scheme once — a name, a factory from
  :class:`RunSpec` to a network, aliases, and a
  :class:`SchemeCapabilities` record the CLI can print;
* :class:`RunSpec` is the one value object describing "which network to
  build": scheme name, :class:`~repro.params.SystemParams`, the TDM knobs
  (``k``, ``k_preload``, ``injection_window``), tracer, fault injector,
  strict mode, and an ``options`` escape hatch for scheme-specific
  keywords (predictor, rotation, prefetcher, ...);
* :func:`build_network` / :func:`run_scheme` are the only entry points
  experiments, the CLI, the compiled frontend, and the benchmarks use.

Adding a scheme (see ``docs/architecture.md``) is one
:func:`register_scheme` call; every consumer — ``repro schemes``, the
experiment sweeps, fault campaigns — picks it up without modification.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from ..errors import ConfigurationError
from ..faults.injector import FaultInjector
from ..params import SystemParams
from ..sim.trace import Tracer
from ..traffic.base import TrafficPhase
from ..topo import Topology, fat_tree, full_mesh
from .base import BaseNetwork, RunResult
from .circuit import CircuitNetwork
from .ideal import IdealNetwork
from .islip import IslipNetwork
from .multiswitch import MultiSwitchTdmNetwork
from .tdm import TdmNetwork
from .wormhole import WormholeNetwork

__all__ = [
    "DEFAULT_K",
    "DEFAULT_INJECTION_WINDOW",
    "SchemeCapabilities",
    "SchemeInfo",
    "RunSpec",
    "register_scheme",
    "get_scheme",
    "scheme_names",
    "resolve_scheme_name",
    "build_network",
    "run_scheme",
]

#: the paper's multiplexing degree (Figure 4 uses K = 4)
DEFAULT_K = 4

#: default per-NIC bound on outstanding non-blocking sends.  The paper's
#: processors are sequential command-file generators; a window equal to the
#: multiplexing degree (4) reproduces its narrated orderings (see DESIGN.md)
DEFAULT_INJECTION_WINDOW = 4


@dataclass(slots=True, frozen=True)
class SchemeCapabilities:
    """What a registered scheme supports (shown by ``repro schemes``)."""

    description: str
    #: TDM operating modes the scheme runs in (empty: not TDM-based)
    tdm_modes: tuple[str, ...] = ()
    #: watchdog/management-plane/give-up fault recovery (the lifecycle layer)
    fault_recovery: bool = False
    #: has request lines into a central scheduler
    request_plane: bool = False
    #: honours RunSpec.injection_window
    injection_window: bool = False
    #: can pin compiled (preloaded) configurations
    preload: bool = False
    #: spans multiple switches (a repro.topo switch graph, multi-hop circuits)
    multi_switch: bool = False


@dataclass(slots=True, frozen=True)
class RunSpec:
    """Everything needed to build (and run) one network instance.

    ``k``/``k_preload``/``injection_window`` only matter to schemes whose
    capabilities say so; other schemes ignore them.  ``options`` carries
    scheme-specific keyword arguments (``predictor=``, ``rotation=``,
    ``prefetcher=``, ``n_sl_units=``, ...) straight into the factory.
    """

    scheme: str
    params: SystemParams
    k: int = DEFAULT_K
    k_preload: int | None = None
    injection_window: int | None = DEFAULT_INJECTION_WINDOW
    tracer: Tracer | None = None
    faults: FaultInjector | None = None
    #: ignored.  Every eligible single-crossbar run takes the
    #: slot-synchronous shortcuts (repro.sim.fastpath) and ``strict=True``
    #: selects the tick-by-tick reference; the field is kept only so that
    #: existing ``RunSpec(fast=...)`` callers keep working.
    fast: bool | None = None
    strict: bool | None = None
    max_wall_s: float | None = None
    options: dict[str, Any] = field(default_factory=dict)


SchemeFactory = Callable[[RunSpec], BaseNetwork]


@dataclass(slots=True, frozen=True)
class SchemeInfo:
    """One registry entry."""

    name: str
    factory: SchemeFactory
    aliases: tuple[str, ...]
    capabilities: SchemeCapabilities


_REGISTRY: dict[str, SchemeInfo] = {}
_ALIAS_TO_NAME: dict[str, str] = {}


def register_scheme(
    name: str,
    factory: SchemeFactory,
    *,
    aliases: tuple[str, ...] = (),
    capabilities: SchemeCapabilities,
) -> SchemeInfo:
    """Register a switching scheme under ``name`` (plus ``aliases``)."""
    if name in _ALIAS_TO_NAME:
        raise ConfigurationError(
            f"scheme {name!r} is already registered "
            f"(canonical: {_ALIAS_TO_NAME[name]!r})"
        )
    info = SchemeInfo(
        name=name, factory=factory, aliases=tuple(aliases), capabilities=capabilities
    )
    for key in (name, *info.aliases):
        if key in _ALIAS_TO_NAME:
            raise ConfigurationError(
                f"scheme alias {key!r} is already registered "
                f"(canonical: {_ALIAS_TO_NAME[key]!r})"
            )
        _ALIAS_TO_NAME[key] = name
    _REGISTRY[name] = info
    return info


def scheme_names() -> tuple[str, ...]:
    """Canonical names of all registered schemes, in registration order."""
    return tuple(_REGISTRY)


def resolve_scheme_name(name: str) -> str:
    """Map a name or alias to the scheme's canonical name."""
    try:
        return _ALIAS_TO_NAME[name]
    except KeyError:
        known = ", ".join(sorted(_ALIAS_TO_NAME))
        raise ConfigurationError(
            f"unknown scheme {name!r}; known schemes and aliases: {known}"
        ) from None


def get_scheme(name: str) -> SchemeInfo:
    """Look a scheme up by canonical name or alias."""
    return _REGISTRY[resolve_scheme_name(name)]


def build_network(spec: RunSpec) -> BaseNetwork:
    """Build the network a :class:`RunSpec` describes."""
    return get_scheme(spec.scheme).factory(spec)


def run_scheme(
    spec: RunSpec, phases: list[TrafficPhase], pattern_name: str = ""
) -> RunResult:
    """Build the network and run ``phases`` through it."""
    return build_network(spec).run(phases, pattern_name=pattern_name)


# -- the built-in schemes -------------------------------------------------------------


def _make_wormhole(spec: RunSpec) -> BaseNetwork:
    return WormholeNetwork(
        spec.params,
        tracer=spec.tracer,
        faults=spec.faults,
        strict=spec.strict,
        max_wall_s=spec.max_wall_s,
        **spec.options,
    )


def _make_circuit(spec: RunSpec) -> BaseNetwork:
    return CircuitNetwork(
        spec.params,
        tracer=spec.tracer,
        faults=spec.faults,
        strict=spec.strict,
        max_wall_s=spec.max_wall_s,
        **spec.options,
    )


def _make_ideal(spec: RunSpec) -> BaseNetwork:
    if spec.faults is not None:
        raise ConfigurationError("the ideal network does not model faults")
    return IdealNetwork(spec.params, tracer=spec.tracer, **spec.options)


def _tdm_factory(mode: str, schedule_computer: str | None = None) -> SchemeFactory:
    """Crossbar TDM in ``mode``; ``schedule_computer`` is only a default,
    a caller's ``options`` entry wins."""

    def make(spec: RunSpec) -> BaseNetwork:
        options = dict(spec.options)
        if schedule_computer is not None:
            options.setdefault("schedule_computer", schedule_computer)
        return TdmNetwork(
            spec.params,
            k=spec.k,
            mode=mode,
            k_preload=spec.k_preload,
            injection_window=spec.injection_window,
            tracer=spec.tracer,
            faults=spec.faults,
            strict=spec.strict,
            max_wall_s=spec.max_wall_s,
            **options,
        )

    return make


def _make_islip(spec: RunSpec) -> BaseNetwork:
    if spec.faults is not None:
        raise ConfigurationError(
            "the islip baseline does not model fault recovery"
        )
    return IslipNetwork(
        spec.params,
        tracer=spec.tracer,
        strict=spec.strict,
        max_wall_s=spec.max_wall_s,
        **spec.options,
    )


def _multiswitch_factory(
    label: str, build_topology: Callable[[RunSpec], Topology]
) -> SchemeFactory:
    """Composite schemes: a switch-graph topology + multi-hop TDM circuits.

    Topology knobs travel in ``spec.options`` as plain ints (so specs stay
    hashable/serialisable for the experiment cache); whatever remains in
    ``options`` goes to :class:`MultiSwitchTdmNetwork` unchanged
    (``trunk_faults=``, ...).
    """

    def make(spec: RunSpec) -> BaseNetwork:
        options = dict(spec.options)
        topology = build_topology(spec)
        return MultiSwitchTdmNetwork(
            spec.params,
            topology=topology,
            k=spec.k,
            tracer=spec.tracer,
            scheme_label=label,
            faults=spec.faults,
            strict=spec.strict,
            max_wall_s=spec.max_wall_s,
            **{k: v for k, v in options.items() if k not in _TOPO_OPTION_KEYS},
        )

    return make


#: topology-construction knobs consumed by the composite factories; the
#: rest of ``options`` passes through to MultiSwitchTdmNetwork
_TOPO_OPTION_KEYS = frozenset({"n_switches", "links_per_pair", "leaf_size", "taper"})


def _mesh_topology(spec: RunSpec) -> Topology:
    return full_mesh(
        spec.params.n_ports,
        n_switches=int(spec.options.get("n_switches", 16)),
        links_per_pair=int(spec.options.get("links_per_pair", 4)),
    )


def _fattree_topology(spec: RunSpec) -> Topology:
    return fat_tree(
        spec.params.n_ports,
        leaf_size=int(spec.options.get("leaf_size", 16)),
        taper=int(spec.options.get("taper", 1)),
    )


register_scheme(
    "wormhole",
    _make_wormhole,
    capabilities=SchemeCapabilities(
        description="worm-granularity wormhole routing (paper baseline 2)",
        fault_recovery=False,  # link faults only: no request plane to retry on
    ),
)
register_scheme(
    "circuit",
    _make_circuit,
    capabilities=SchemeCapabilities(
        description="per-message circuit establishment, k=1 (paper baseline 1)",
        fault_recovery=True,
        request_plane=True,
    ),
)
register_scheme(
    "dynamic-tdm",
    _tdm_factory("dynamic"),
    aliases=("tdm-dynamic", "dynamic", "tdm"),
    capabilities=SchemeCapabilities(
        description="TDM with run-time (SL-scheduled) configurations",
        tdm_modes=("dynamic",),
        fault_recovery=True,
        request_plane=True,
        injection_window=True,
    ),
)
register_scheme(
    "preload",
    _tdm_factory("preload"),
    aliases=("tdm-preload",),
    capabilities=SchemeCapabilities(
        description="TDM with all k slots preloaded (compiled communication)",
        tdm_modes=("preload",),
        fault_recovery=True,
        request_plane=True,
        injection_window=True,
        preload=True,
    ),
)
register_scheme(
    "hybrid",
    _tdm_factory("hybrid"),
    aliases=("tdm-hybrid",),
    capabilities=SchemeCapabilities(
        description="TDM with k_preload pinned + (k - k_preload) dynamic slots",
        tdm_modes=("hybrid",),
        fault_recovery=True,
        request_plane=True,
        injection_window=True,
        preload=True,
    ),
)
register_scheme(
    "ideal",
    _make_ideal,
    capabilities=SchemeCapabilities(
        description="contention-free bottleneck bound (efficiency denominator)",
    ),
)
register_scheme(
    "islip",
    _make_islip,
    capabilities=SchemeCapabilities(
        description="iterative VOQ matching, per-slot (Tiny Tera baseline)",
        fault_recovery=False,  # reactive per-slot matching: nothing to recover
    ),
)
register_scheme(
    "solstice-tdm",
    _tdm_factory("preload", schedule_computer="solstice"),
    aliases=("solstice",),
    capabilities=SchemeCapabilities(
        description="preload TDM fed by Solstice-style demand-ranked schedules",
        tdm_modes=("preload",),
        fault_recovery=True,
        request_plane=True,
        injection_window=True,
        preload=True,
    ),
)
register_scheme(
    "mesh-tdm",
    _multiswitch_factory("mesh-tdm", _mesh_topology),
    aliases=("fm16-tdm",),
    capabilities=SchemeCapabilities(
        description="16-switch full mesh, multi-hop TDM circuits (FM16 scale-out)",
        tdm_modes=("dynamic",),
        fault_recovery=True,
        request_plane=True,
        multi_switch=True,
    ),
)
register_scheme(
    "fattree-tdm",
    _multiswitch_factory("fattree-tdm", _fattree_topology),
    aliases=("fat-tree-tdm",),
    capabilities=SchemeCapabilities(
        description="2-tier fat tree (leaves+spines), multi-hop TDM circuits",
        tdm_modes=("dynamic",),
        fault_recovery=True,
        request_plane=True,
        multi_switch=True,
    ),
)
