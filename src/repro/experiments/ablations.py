"""Ablations for the design choices the paper proposes but does not sweep.

Each ablation corresponds to an extension or design knob from Sections 3
and 4 (DESIGN.md experiment ids A1–A12):

* **A1 — multiple SL units** (Section 4, ext. 1): scheduling-throughput
  limited workloads speed up with parallel SL-array copies.
* **A2 — multi-slot connections** (Section 4, ext. 2): a connection with a
  deep backlog gets additional TDM slots, multiplying its bandwidth.
* **A3 — eviction predictors** (Section 3.2): none vs time-out vs counter
  on sequential mesh traffic, where connection reuse across rounds is what
  a predictor can save.
* **A4 — guard band** (Section 4): usable slot bytes shrink with the guard
  fraction; efficiency on a preloaded mesh degrades proportionally.
* **A5 — priority rotation** (Section 4): fixed priority starves
  high-index ports under contention; rotation equalises service.
* **A6 — idle-slot skipping**: the generalisation of the TDM counter's
  empty-configuration skipping to configurations with no pending requests.
* **A7 — multi-hop** (Section 6): lives in
  :mod:`repro.networks.multihop`; benched alongside these.
* **A8 — multiplexing degree** (Section 2): efficiency vs scheduler area
  as K grows around the working-set size.
* **A9 — Markov prefetching** (Section 3.2): proactive establishment on
  predictable vs random destination order.
* **A10 — fabric constraints** (Section 4): the same traffic under
  crossbar / Omega / tapered fat-tree rules.
* **A11 — cooperative control** (Section 6's future work): compiler
  preloads + predictor prefetching + dynamic scheduling, composed.
* **A12 — injection window**: sensitivity of the narrated orderings to
  this reproduction's main modelling judgment call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..exec import ExecStats, map_cells
from ..networks.base import BaseNetwork
from ..networks.registry import RunSpec, build_network
from ..params import PAPER_PARAMS, SystemParams
from ..predict.base import Predictor
from ..predict.counter import CounterPredictor
from ..predict.timeout import TimeoutPredictor
from ..sched.priority import FixedPriority, RoundRobinPriority
from ..sim.clock import us
from ..sim.rng import RngStreams
from ..traffic.alltoall import AllToAllPattern
from ..traffic.base import TrafficPhase, assign_seq
from ..traffic.hybrid import HybridPattern
from ..traffic.mesh import OrderedMeshPattern
from ..types import Message
from .common import DEFAULT_SEED, measure

__all__ = [
    "ABLATIONS",
    "AblationCell",
    "run_ablation_cell",
    "run_ablations",
    "ablation_cooperative_control",
    "ablation_fabrics",
    "ablation_multiplexing_degree",
    "ablation_prefetching",
    "ablation_sl_units",
    "ablation_multislot",
    "ablation_predictors",
    "ablation_guard_band",
    "ablation_rotation_fairness",
    "ablation_idle_slot_skipping",
    "ablation_injection_window",
]


def _net(
    scheme: str,
    params: SystemParams,
    *,
    k: int = 4,
    k_preload: int | None = None,
    injection_window: int | None = None,
    **options,
) -> BaseNetwork:
    """Build one ablation network through the scheme registry.

    Ablations sweep scheme-specific knobs (predictors, SL units, fabric
    constraints, ...), which ride in ``RunSpec.options``.  The injection
    window defaults to None (unbounded) here — each ablation states its
    window explicitly because it is part of what is being measured.
    """
    return build_network(
        RunSpec(
            scheme=scheme,
            params=params,
            k=k,
            k_preload=k_preload,
            injection_window=injection_window,
            options=options,
        )
    )


def ablation_sl_units(
    params: SystemParams = PAPER_PARAMS,
    units: tuple[int, ...] = (1, 2, 4),
    size_bytes: int = 64,
    seed: int = DEFAULT_SEED,
) -> dict[int, float]:
    """A1: dynamic-TDM all-to-all efficiency vs number of SL units."""
    out: dict[int, float] = {}
    for n_units in units:
        net = _net(
            "dynamic-tdm", params, k=4, injection_window=4, n_sl_units=n_units
        )
        point = measure(AllToAllPattern(params.n_ports, size_bytes), net, seed=seed)
        out[n_units] = point.efficiency
    return out


@dataclass(slots=True, frozen=True)
class _ElephantPattern:
    """One node streams a large transfer against persistent background load.

    Nodes 2..N-1 exchange four shift permutations among themselves, keeping
    all K slots occupied; the elephant connection (0 -> 1) therefore gets
    1/K of the link without boosting and 2/K with ``max_slots=2`` boosting.
    """

    n_ports: int
    size_bytes: int
    background_bytes: int
    name: str = "elephant"

    def phases(self, rng: RngStreams) -> list[TrafficPhase]:
        msgs = [Message(src=0, dst=1, size=self.size_bytes)]
        others = self.n_ports - 2  # nodes 2 .. N-1
        for shift in range(1, 5):
            for i in range(others):
                src = 2 + i
                dst = 2 + (i + shift) % others
                if dst != src:
                    msgs.append(Message(src=src, dst=dst, size=self.background_bytes))
        phases = [TrafficPhase("elephant", msgs)]
        assign_seq(phases)
        return phases


def ablation_multislot(
    params: SystemParams = PAPER_PARAMS,
    size_bytes: int = 65536,
    seed: int = DEFAULT_SEED,
) -> dict[str, float]:
    """A2: elephant-flow completion with and without multi-slot boosting.

    Reports the delivery time of the elephant message under both policies;
    boosting should cut it by roughly half (two slots of K=4 instead of
    one).
    """
    background = size_bytes  # keep the background busy for the whole run

    def elephant_done(network: BaseNetwork) -> float:
        pattern = _ElephantPattern(params.n_ports, size_bytes, background)
        phases = pattern.phases(RngStreams(seed))
        result = network.run(phases, pattern_name=pattern.name)
        for r in result.records:
            if r.src == 0 and r.dst == 1:
                return r.done_ps / 1000.0
        raise AssertionError("elephant message was not delivered")

    base_ns = elephant_done(_net("dynamic-tdm", params, k=4))
    boosted_ns = elephant_done(
        _net("dynamic-tdm", params, k=4, multislot_threshold_bytes=1024)
    )
    return {
        "elephant_ns": base_ns,
        "boosted_elephant_ns": boosted_ns,
        "speedup": base_ns / boosted_ns,
    }


def ablation_predictors(
    params: SystemParams = PAPER_PARAMS,
    size_bytes: int = 64,
    rounds: int = 8,
    seed: int = DEFAULT_SEED,
) -> dict[str, float]:
    """A3: eviction policy comparison on sequential ordered-mesh traffic.

    Injection window 1 makes queues drain between uses, so cached
    connections only survive if a predictor latches them.
    """
    def mk(pred: Predictor | None) -> BaseNetwork:
        return _net("dynamic-tdm", params, k=4, injection_window=1, predictor=pred)

    pattern = lambda: OrderedMeshPattern(params.n_ports, size_bytes, rounds=rounds)
    out: dict[str, float] = {}
    out["none"] = measure(pattern(), mk(None), seed=seed).efficiency
    out["timeout-2us"] = measure(
        pattern(), mk(TimeoutPredictor(us(2))), seed=seed
    ).efficiency
    out["counter-512"] = measure(
        pattern(), mk(CounterPredictor(512)), seed=seed
    ).efficiency
    return out


def ablation_guard_band(
    params: SystemParams = PAPER_PARAMS,
    fractions: tuple[float, ...] = (0.0, 0.05, 0.10),
    size_bytes: int = 2048,
    seed: int = DEFAULT_SEED,
) -> dict[float, float]:
    """A4: preloaded-mesh efficiency vs guard-band fraction.

    Large messages make the effect first-order (efficiency tracks usable
    slot bytes); small messages absorb the guard band in the ceil-to-slot
    quantisation, which is itself a finding worth noticing.
    """
    out: dict[float, float] = {}
    for frac in fractions:
        p = params.with_overrides(guard_band_frac=frac)
        net = _net("preload", p, k=4, injection_window=4)
        point = measure(
            OrderedMeshPattern(p.n_ports, size_bytes, rounds=4), net, seed=seed
        )
        out[frac] = point.efficiency
    return out


def ablation_rotation_fairness(
    params: SystemParams = PAPER_PARAMS,
    size_bytes: int = 64,
    seed: int = DEFAULT_SEED,
) -> dict[str, float]:
    """A5: fixed vs rotating priority under all-to-all establishment churn.

    With every node competing to establish fresh connections each pass,
    the fixed-priority wavefront repeatedly favours the same region of the
    request matrix, producing poorer matchings over time; rotating the
    injection point diversifies the greedy order and lifts efficiency by
    ~20 %.  (Single-hotspot contention does *not* expose the policy: a
    release frees its ports for the cells after it in the same wavefront,
    which is naturally round-robin.)

    Returns overall efficiency and the coefficient of variation of
    per-source mean latency for both policies.
    """
    from ..metrics.efficiency import efficiency_from_bound, run_lower_bound_ps

    out: dict[str, float] = {}
    for label, rotation in (
        ("fixed", FixedPriority(params.n_ports)),
        ("round-robin", RoundRobinPriority(params.n_ports)),
    ):
        phases = AllToAllPattern(params.n_ports, size_bytes).phases(RngStreams(seed))
        bound = run_lower_bound_ps(phases, params)
        # deep queues (no injection window) expose the policy: the full
        # request matrix competes in every wavefront
        net = _net(
            "dynamic-tdm", params, k=4, injection_window=None, rotation=rotation
        )
        result = net.run(phases, pattern_name="all-to-all")
        total = np.zeros(params.n_ports, dtype=np.float64)
        count = np.zeros(params.n_ports, dtype=np.int64)
        for r in result.records:
            total[r.src] += r.latency_ps
            count[r.src] += 1
        means = total / np.maximum(count, 1)
        out[f"{label}_efficiency"] = efficiency_from_bound(bound, result.makespan_ps)
        out[f"{label}_latency_cov"] = float(means.std() / means.mean())
    return out


def ablation_idle_slot_skipping(
    params: SystemParams = PAPER_PARAMS,
    determinism: float = 0.6,
    seed: int = DEFAULT_SEED,
) -> dict[str, float]:
    """A6: hybrid efficiency with and without idle-slot skipping."""
    out: dict[str, float] = {}
    for label, skip in (("skip", True), ("no-skip", False)):
        pattern = HybridPattern(
            params.n_ports, 64, determinism=determinism, messages_per_node=32
        )
        net = _net(
            "hybrid",
            params,
            k=3,
            k_preload=1,
            injection_window=4,
            skip_idle_slots=skip,
        )
        out[label] = measure(pattern, net, seed=seed).efficiency
    return out


def ablation_multiplexing_degree(
    params: SystemParams = PAPER_PARAMS,
    degrees: tuple[int, ...] = (1, 2, 4, 8, 16),
    size_bytes: int = 64,
    rounds: int = 4,
    seed: int = DEFAULT_SEED,
) -> dict[int, dict[str, float]]:
    """A8: Section 2's central trade-off — multiplexing degree K.

    Random-mesh traffic needs degree 4 to cache its working set; smaller K
    forces churn.  Beyond the working set, extra registers still help the
    greedy wavefront pack connections (and the skipping TDM counter makes
    idle slots free), so *efficiency* saturates rather than degrades — the
    real price of large K is scheduler area, which grows linearly in K
    (K * N^2 configuration bits).  The ablation reports both, which is the
    quantitative form of the paper's small-k argument.
    """
    from ..hw.synth import SchedulerAreaModel
    from ..traffic.mesh import RandomMeshPattern

    area = SchedulerAreaModel()
    out: dict[int, dict[str, float]] = {}
    for k in degrees:
        net = _net("dynamic-tdm", params, k=k, injection_window=4)
        point = measure(
            RandomMeshPattern(params.n_ports, size_bytes, rounds=rounds),
            net,
            seed=seed,
        )
        out[k] = {
            "efficiency": point.efficiency,
            "kilo_les": area.logic_elements(params.n_ports, k) / 1000.0,
        }
    return out


def ablation_prefetching(
    params: SystemParams = PAPER_PARAMS,
    size_bytes: int = 64,
    rounds: int = 8,
    seed: int = DEFAULT_SEED,
) -> dict[str, float]:
    """A9: Markov next-connection prefetching on predictable vs random order.

    With sequential sends (window 1), each new destination normally pays
    the full request/schedule/grant handshake.  The Markov prefetcher
    latches the *predicted* next connection while the current message
    still flows, so on the perfectly periodic Ordered Mesh the
    establishment disappears after one warm-up round — while Random
    Mesh's unpredictable order gives the predictor nothing to learn.
    Returns efficiency with/without prefetching on both patterns, plus
    the predictor's accuracy.
    """
    from ..predict.markov import MarkovPrefetcher
    from ..traffic.mesh import RandomMeshPattern

    out: dict[str, float] = {}
    for label, pattern_factory in (
        ("ordered", lambda: OrderedMeshPattern(params.n_ports, size_bytes, rounds=rounds)),
        ("random", lambda: RandomMeshPattern(params.n_ports, size_bytes, rounds=rounds)),
    ):
        base = measure(
            pattern_factory(),
            _net("dynamic-tdm", params, k=4, injection_window=1),
            seed=seed,
        )
        prefetcher = MarkovPrefetcher(params.n_ports, hold_ps=us(2))
        pf = measure(
            pattern_factory(),
            _net(
                "dynamic-tdm",
                params,
                k=4,
                injection_window=1,
                prefetcher=prefetcher,
            ),
            seed=seed,
        )
        out[f"{label}_base"] = base.efficiency
        out[f"{label}_prefetch"] = pf.efficiency
        out[f"{label}_accuracy"] = prefetcher.accuracy()
    return out


def ablation_fabrics(
    params: SystemParams = PAPER_PARAMS,
    size_bytes: int = 64,
    rounds: int = 2,
    seed: int = DEFAULT_SEED,
) -> dict[str, float]:
    """A10: the same TDM system over fabrics with different constraints.

    Section 4 generalises the configuration constraint beyond the
    crossbar; this ablation runs identical ordered-mesh traffic with the
    scheduler checking (a) crossbar constraints only, (b) Omega-network
    link-disjointness, and (c) a 4:1 tapered fat-tree's edge capacities.
    Restricted fabrics reject insertions (counted as fabric blocks), which
    lowers efficiency exactly where the topology is oversubscribed.
    """
    from ..fabric.multistage import OmegaNetwork
    from ..topo import binary_fat_tree

    # the constraint checkers walk per-connection routes in Python, so run
    # this ablation at a moderate size regardless of the global default
    n = min(params.n_ports, 32)
    p = params.with_overrides(n_ports=n)
    out: dict[str, float] = {}
    for label, constraint in (
        ("crossbar", None),
        ("omega", OmegaNetwork(n)),
        ("fat-tree-4to1", binary_fat_tree(n, taper=4)),
    ):
        net = _net(
            "dynamic-tdm",
            p,
            k=4,
            injection_window=4,
            fabric_constraint=constraint,
        )
        point = measure(
            OrderedMeshPattern(n, size_bytes, rounds=rounds), net, seed=seed
        )
        out[label] = point.efficiency
    return out


def ablation_cooperative_control(
    params: SystemParams = PAPER_PARAMS,
    size_bytes: int = 64,
    seed: int = DEFAULT_SEED,
) -> dict[str, float]:
    """A11: the conclusion's future work — compiler, predictor, and
    dynamic scheduler working together.

    The workload is a compiled program whose loops alternate a
    statically-known stencil with a *predictable but not compiler-visible*
    shift sequence (modelled as Unknown statements in a fixed rotation).
    Four control stacks run the identical message stream:

    * ``dynamic``            — run-time scheduling only;
    * ``+prefetch``          — plus the Markov next-connection prefetcher;
    * ``compiler``           — hybrid preload of the static stencil with
                               per-phase flush directives;
    * ``compiler+prefetch``  — both: preloaded registers serve the static
                               pattern while the predictor covers the
                               repeating dynamic remainder.
    """
    from ..compiled.frontend import Loop, Seq, Stencil, Unknown, compile_program
    from ..predict.markov import MarkovPrefetcher

    n = params.n_ports
    # the "data-dependent" rotation the compiler cannot see but a
    # predictor can learn: every node cycles partners +3, +5
    unknown_a = Unknown(pairs=tuple((u, (u + 3) % n) for u in range(n)))
    unknown_b = Unknown(pairs=tuple((u, (u + 5) % n) for u in range(n)))
    program = Seq(
        body=(
            Loop(trips=4, body=(Stencil(),)),
            Loop(trips=8, body=(unknown_a, unknown_b)),
            Loop(trips=4, body=(Stencil(),)),
        )
    )
    schedule = compile_program(program, n, k_preload=2, max_batches=2)

    def run(mode: str, use_prefetch: bool) -> float:
        phases = schedule.to_traffic(size_bytes)
        prefetcher = (
            MarkovPrefetcher(n, hold_ps=us(2)) if use_prefetch else None
        )
        if mode == "hybrid":
            net = _net(
                "hybrid",
                params,
                k=4,
                k_preload=2,
                injection_window=1,
                flush_on_phase=True,
                prefetcher=prefetcher,
            )
        else:
            net = _net(
                "dynamic-tdm",
                params,
                k=4,
                injection_window=1,
                prefetcher=prefetcher,
            )
        from ..metrics.efficiency import efficiency_from_bound, run_lower_bound_ps

        bound = run_lower_bound_ps(phases, params)
        result = net.run(phases, pattern_name="cooperative")
        return efficiency_from_bound(bound, result.makespan_ps)

    return {
        "dynamic": run("dynamic", False),
        "+prefetch": run("dynamic", True),
        "compiler": run("hybrid", False),
        "compiler+prefetch": run("hybrid", True),
    }


def ablation_injection_window(
    params: SystemParams = PAPER_PARAMS,
    windows: tuple = (1, 2, 4, 8, None),
    size_bytes: int = 64,
    seed: int = DEFAULT_SEED,
) -> dict[str, dict[str, float]]:
    """A12: sensitivity to the injection-window modelling decision.

    The window (outstanding non-blocking sends per node) is this
    reproduction's main judgment call about the paper's command-file
    generators (DESIGN.md).  For each window this ablation reports
    dynamic-TDM efficiency on the two most window-sensitive workloads —
    all-to-all (the Two Phase driver) and scatter — next to the
    window-independent wormhole reference, so readers can see which
    narrated orderings depend on the choice:

    * scatter: dynamic TDM ~ preload at every window >= 2;
    * all-to-all: dynamic TDM falls below wormhole for windows <= 4 and
      overtakes it with deep queues (the full-R-matrix upper bound).
    """
    from ..traffic.scatter import ScatterPattern

    out: dict[str, dict[str, float]] = {}
    worm_a2a = measure(
        AllToAllPattern(params.n_ports, size_bytes),
        _net("wormhole", params),
        seed=seed,
    ).efficiency
    worm_scatter = measure(
        ScatterPattern(params.n_ports, size_bytes),
        _net("wormhole", params),
        seed=seed,
    ).efficiency
    for window in windows:
        label = f"W={window if window is not None else 'inf'}"
        a2a = measure(
            AllToAllPattern(params.n_ports, size_bytes),
            _net("dynamic-tdm", params, k=4, injection_window=window),
            seed=seed,
        ).efficiency
        scatter = measure(
            ScatterPattern(params.n_ports, size_bytes),
            _net("dynamic-tdm", params, k=4, injection_window=window),
            seed=seed,
        ).efficiency
        out[label] = {
            "alltoall_dyn": a2a,
            "alltoall_vs_wormhole": a2a / worm_a2a,
            "scatter_dyn": scatter,
            "scatter_vs_wormhole": scatter / worm_scatter,
        }
    return out


#: ablation id -> (title, runner); the CLI and the report driver both
#: resolve through this table, and :func:`run_ablation_cell` dispatches on
#: the id so each ablation is one cacheable run cell
ABLATIONS: dict[str, tuple[str, Callable[..., dict]]] = {
    "a1": ("SL units", ablation_sl_units),
    "a2": ("multi-slot connections", ablation_multislot),
    "a3": ("eviction predictors", ablation_predictors),
    "a4": ("guard band", ablation_guard_band),
    "a5": ("priority rotation", ablation_rotation_fairness),
    "a6": ("idle-slot skipping", ablation_idle_slot_skipping),
    "a8": ("multiplexing degree", ablation_multiplexing_degree),
    "a9": ("Markov prefetching", ablation_prefetching),
    "a10": ("fabric constraints", ablation_fabrics),
    "a11": ("cooperative control", ablation_cooperative_control),
    "a12": ("injection window sensitivity", ablation_injection_window),
}


@dataclass(slots=True, frozen=True)
class AblationCell:
    """One ablation as a run cell: the id plus everything it varies on."""

    key: str
    params: SystemParams
    seed: int


def run_ablation_cell(cell: AblationCell) -> dict:
    """Run one ablation at its default knobs (the engine's runner)."""
    return ABLATIONS[cell.key][1](params=cell.params, seed=cell.seed)


def run_ablations(
    keys: Sequence[str] | None = None,
    params: SystemParams = PAPER_PARAMS,
    seed: int = DEFAULT_SEED,
    *,
    jobs: int | None = None,
    cache: object | None = None,
    refresh: bool = False,
    progress: bool = False,
) -> tuple[dict[str, dict], ExecStats]:
    """Run the requested ablations (all by default), fanned out per cell.

    Returns ``(id -> metrics dict, executor stats)`` with ids in the
    requested order.  Each ablation is internally serial (its settings
    share networks and predictors), so the cell grain is the ablation.
    """
    wanted = list(keys or ABLATIONS)
    for key in wanted:
        if key not in ABLATIONS:
            raise KeyError(key)
    cells = [AblationCell(key=key, params=params, seed=seed) for key in wanted]
    outcome = map_cells(
        run_ablation_cell,
        cells,
        root_seed=seed,
        jobs=jobs,
        cache=cache,
        refresh=refresh,
        label="ablations",
        progress=progress,
    )
    return dict(zip(wanted, outcome.payloads)), outcome.stats
