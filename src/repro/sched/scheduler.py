"""The full connection scheduler (Figure 2 of the paper).

One :class:`Scheduler` owns:

* the configuration register file ``B(0) .. B(K-1)`` and the derived ``B*``;
* the scheduler's *view* of the request matrix ``R`` (the network model
  updates it after the request-wire delay);
* the request **latches** of extension 3 (used by the dynamic predictors
  to hold a connection after its request line drops);
* an **SL counter** that round-robins successive passes over the slots the
  dynamic scheduler may modify (preloaded slots are pinned and skipped);
* a :class:`~repro.sched.priority.RotationPolicy` for fairness.

Each call to :meth:`sl_pass` models one SL clock period: pick a slot,
evaluate Table 1, run the SL array, and apply the resulting toggles.  The
caller (the TDM network model) invokes it every ``scheduler_pass_ps``.

The scheduler is the only writer of the state a pass reads: the request
matrices are read-only views written through its setters, and the
register file counts its own writes.  That lets :meth:`sl_pass` replay a
pass that toggled nothing instead of evaluating it again.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import InvariantError, SchedulingError
from ..fabric.config import ConfigMatrix
from ..fabric.registers import ConfigRegisterFile
from ..params import SystemParams
from ..sim.stats import Counter
from ..sim.trace import NULL_TRACER
from .presched import compute_l
from .priority import FixedPriority, RotationPolicy
from .slarray import PassOutcome, wavefront_sparse
from .tdm import TdmCounter

__all__ = ["Scheduler", "SchedulerPass"]


def _read_only(a: np.ndarray) -> np.ndarray:
    view = a.view()
    view.flags.writeable = False
    return view


@dataclass(slots=True, frozen=True)
class SchedulerPass:
    """Record of one SL clock period."""

    slot: int | None  # None: no dynamic slot available to schedule
    outcome: PassOutcome | None


class Scheduler:
    """The paper's scheduler: SL array + register file + TDM counter."""

    def __init__(
        self,
        params: SystemParams,
        k: int,
        rotation: RotationPolicy | None = None,
    ) -> None:
        n = params.n_ports
        self.params = params
        self.registers = ConfigRegisterFile(n, k)
        self.tdm = TdmCounter(self.registers)
        self.rotation = rotation if rotation is not None else FixedPriority(n)
        # The request plane is written only through the setters below, each
        # of which bumps ``_generation`` when a value changes; the public
        # matrices are read-only views, so a stray write raises instead of
        # leaving the pass memo stale.
        self._requests = np.zeros((n, n), dtype=bool)
        self._latches = np.zeros((n, n), dtype=bool)
        self._boost = np.zeros((n, n), dtype=bool)
        self._dead: np.ndarray | None = None
        #: the scheduler's (wire-delayed) view of the request matrix
        self.r_view = _read_only(self._requests)
        #: request latches — extension 3 (predictor-held connections)
        self.latched = _read_only(self._latches)
        #: multi-slot boost mask — extension 2
        self.boost = _read_only(self._boost)
        #: dead SL cells (fault model): cell (u, v) can no longer toggle,
        #: so connection (u, v) is invisible to the dynamic scheduler
        self.dead_cells: np.ndarray | None = None
        self._generation = 0
        #: slot -> ((generation, register version), blocked, rotation draws)
        #: of the last pass over that slot that toggled nothing
        self._memo: dict[int, tuple[tuple[int, int], int, int]] = {}
        self._sl_cursor = 0
        #: wavefront evaluator — `wavefront_sparse` by default; the
        #: slot-synchronous fast path swaps in `wavefront_batch` (the two
        #: are bit-identical, so either is always safe)
        self.wavefront = wavefront_sparse
        self.counters = Counter()
        #: observability hooks — the owning network model assigns both so
        #: passes are traced with simulation timestamps (subclasses keep
        #: their constructors unchanged)
        self.tracer = NULL_TRACER
        self.clock = lambda: 0
        #: set by the owning network model: audit every memo hit
        self.strict = False

    # -- request plane ---------------------------------------------------------

    @property
    def n(self) -> int:
        return self.registers.n

    @property
    def k(self) -> int:
        return self.registers.k

    def set_request(self, u: int, v: int, value: bool) -> None:
        """Update one bit of the scheduler's request view."""
        if self._requests.item(u, v) != value:  # item(): no numpy scalar
            self._requests[u, v] = value
            self._generation += 1

    def set_requests(self, mask: np.ndarray) -> None:
        """Replace the whole request view (a full refresh)."""
        if not np.array_equal(self._requests, mask):
            self._requests[:] = mask
            self._generation += 1

    def latch(self, u: int, v: int, value: bool = True) -> None:
        """Hold (or stop holding) connection (u, v) past its request drop."""
        if self._latches.item(u, v) != value:
            self._latches[u, v] = value
            self._generation += 1

    def clear_latches(self) -> None:
        if self._latches.any():
            self._latches[:] = False
            self._generation += 1

    def drop_port(self, port: int) -> None:
        """Clear every request and latch to or from ``port`` (a dead link)."""
        for m in (self._requests, self._latches):
            if m[port, :].any() or m[:, port].any():
                m[port, :] = False
                m[:, port] = False
                self._generation += 1

    def set_boost(self, mask: np.ndarray) -> None:
        """Replace the multi-slot boost mask (extension 2)."""
        if not np.array_equal(self._boost, mask):
            self._boost[:] = mask
            self._generation += 1

    # -- compiled-communication plane (extensions 4 & 5) ------------------------

    def preload(self, configs: list[ConfigMatrix], *, pin: bool = True) -> None:
        """Load ``configs`` into the first ``len(configs)`` slots.

        ``pin=True`` (the default) reserves those slots for the compiled
        pattern: the dynamic scheduler will neither insert into nor release
        from them.
        """
        if len(configs) > self.k:
            raise SchedulingError(
                f"cannot preload {len(configs)} configurations into K={self.k}"
            )
        for s, cfg in enumerate(configs):
            self.registers.load(s, cfg, pin=pin)
        self.counters.inc("preloads", len(configs))

    def flush(self) -> None:
        """Extension 4: clear every configuration and every latch."""
        self.registers.flush()
        self.clear_latches()
        self.counters.inc("flushes")

    # -- fault management (repro.faults) ------------------------------------------

    def kill_cell(self, u: int, v: int) -> None:
        """Mark SL cell (u, v) dead: it can never toggle its connection.

        The pre-scheduling logic's L matrix is masked at the dead cell, so
        the dynamic scheduler neither establishes nor releases (u, v); the
        management plane must place the connection directly
        (:meth:`mgmt_establish`).
        """
        if self._dead is None:
            self._dead = np.zeros((self.n, self.n), dtype=bool)
            self.dead_cells = _read_only(self._dead)
        if not self._dead[u, v]:
            self._dead[u, v] = True
            self._generation += 1
        self.counters.inc("sl_cells_dead")

    def quarantine_slot(self, slot: int) -> list:
        """Take a faulty slot out of service; returns its evicted connections."""
        evicted = self.registers.quarantine(slot)
        self.counters.inc("slots_quarantined")
        return evicted

    def mgmt_establish(self, u: int, v: int) -> int | None:
        """Management-plane slot remapping: place (u, v) in a healthy slot.

        Scans the dynamically-schedulable slots for one where both input
        ``u`` and output ``v`` are free and establishes the connection
        there directly, bypassing the (possibly faulty) SL array.  Returns
        the chosen slot, or None when no healthy slot has both ports free.
        """
        if self.registers.b_star[u, v]:
            return self.registers.slot_of(u, v)
        for slot in self.registers.dynamic_slots():
            if slot in self.registers.stuck:
                continue
            cfg = self.registers[slot]
            if not cfg.input_busy()[u] and not cfg.output_busy()[v]:
                self.registers.establish(slot, u, v)
                self.counters.inc("mgmt_establishes")
                if self.tracer.enabled:
                    self.tracer.record(
                        self.clock(), "conn-establish", src=u, dst=v, slot=slot, via="mgmt"
                    )
                return slot
        return None

    # -- the SL clock ------------------------------------------------------------

    def next_dynamic_slot(self) -> int | None:
        """Round-robin choice of the slot the next pass will schedule."""
        dynamic = self.registers.dynamic_slots()
        if not dynamic:
            return None
        slot = dynamic[self._sl_cursor % len(dynamic)]
        self._sl_cursor += 1
        return slot

    def sl_pass(self, slot: int | None = None) -> SchedulerPass:
        """One SL clock period: schedule insertions/releases for one slot.

        A pass that toggles nothing moves no A/D signal, so each of its L
        cells was blocked by port occupancy alone.  Until the request plane
        or the register file changes, the next pass over the same slot
        repeats it exactly; such a pass is replayed from the memo — its
        rotation draws, counters and trace record — without evaluating L.
        """
        if slot is None:
            slot = self.next_dynamic_slot()
            if slot is None:
                self.counters.inc("passes_idle")
                return SchedulerPass(None, None)
        elif slot in self.registers.pinned:
            raise SchedulingError(
                f"cannot run a dynamic pass on slot {slot}: it is pinned "
                f"(preloaded); pinned slots are {sorted(self.registers.pinned)}"
            )
        elif slot in self.registers.quarantined:
            raise SchedulingError(
                f"cannot run a dynamic pass on slot {slot}: it is "
                f"quarantined after a fault"
            )

        # The memo key is read before the pass: a pass that writes any
        # register (even a trial establish it takes back) moves the version
        # past it, so only passes that changed nothing can be replayed.
        key = (self._generation, self.registers.version)
        memo = self._memo.get(slot)
        if memo is not None and memo[0] == key:
            _, blocked, draws = memo
            if self.strict:
                self._audit_memo_hit(slot, blocked)
            for _ in range(draws):
                self.rotation.next_rotation()
            outcome = PassOutcome(blocked=blocked)
        else:
            cfg = self.registers[slot]
            rows, cols = np.nonzero(self._l_matrix(cfg))
            outcome = self._evaluate(slot, cfg, rows, cols)
            if not outcome.toggles:
                self._memo[slot] = (key, outcome.blocked, self._rotation_draws(len(rows)))
        self.counters.inc("passes")
        self.counters.inc("blocked", outcome.blocked)
        if self.tracer.enabled:
            self._trace_pass(slot, outcome)
        return SchedulerPass(slot, outcome)

    def _l_matrix(self, cfg: ConfigMatrix) -> np.ndarray:
        """Table 1 for one slot, with the dead SL cells masked out."""
        l = compute_l(
            self.r_view,
            cfg.b,
            self.registers.b_star,
            boost=self.boost if self.boost.any() else None,
            hold=self.latched if self.latched.any() else None,
        ).l
        if self.dead_cells is not None:
            l = l & ~self.dead_cells
        return l

    def _audit_memo_hit(self, slot: int, blocked: int) -> None:
        """Strict mode: re-derive that a replayed pass really is inert.

        A pass toggles nothing exactly when L holds no release cell and
        every L cell lacks a free input or a free output in the slot; it
        then blocks every L cell, whatever the rotation.
        """
        cfg = self.registers[slot]
        l = self._l_matrix(cfg)
        free = ~cfg.input_busy()[:, None] & ~cfg.output_busy()[None, :]
        cells = int(np.count_nonzero(l))
        if np.any(l & cfg.b) or np.any(l & free) or cells != blocked:
            raise InvariantError(
                f"memoised SL pass on slot {slot} is not inert: L holds "
                f"{cells} cells, the memo replays {blocked} as blocked"
            )

    def _rotation_draws(self, cells: int) -> int:
        """Rotations :meth:`_evaluate` draws for an L with ``cells`` cells."""
        return 1

    def _evaluate(
        self, slot: int, cfg: ConfigMatrix, rows: np.ndarray, cols: np.ndarray
    ) -> PassOutcome:
        """Evaluate the L cells ``(rows, cols)`` of ``slot``; apply the toggles.

        The crossbar's SL array: one wavefront from the next rotation's
        injection point.  This is the only step of :meth:`sl_pass` a
        fabric-specific scheduler overrides.
        """
        outcome = self.wavefront(
            rows,
            cols,
            cfg.b,
            cfg.output_busy(),
            cfg.input_busy(),
            rotation=self.rotation.next_rotation(),
        )
        for t in outcome.toggles:
            self.registers.toggle(slot, t.u, t.v)
            self.counters.inc("establishes" if t.establish else "releases")
        return outcome

    def sl_tick(self) -> list[SchedulerPass]:
        """One SL clock period: a single SL unit runs one pass."""
        return [self.sl_pass()]

    # -- inert passes (the slot-synchronous fast path) -------------------------------

    def inert_blocked(self, slots: list[int] | None = None) -> int | None:
        """Cells a pass over any of ``slots`` blocks, or None if it may toggle.

        ``slots`` defaults to the slot the next :meth:`sl_pass` schedules;
        with no slot at all the passes are idle and block nothing.
        Inertness is decided by the same Table-1 terms :func:`compute_l`
        evaluates.  The release term ``B(s) & ~(R|latched)`` must be empty
        in every slot.  Establish candidates ``(R|latched) & ~B*``
        (slot-independent since ``B(s) <= B*``) are tolerated only if each
        lacks a free input AND output in every slot: signals only move on
        toggles, so entry occupancy decides alone, and each inert pass
        counts exactly the candidates as blocked.  Dead cells are never
        proven inert.  The rule is the SL array's, so it holds for the
        plain scheduler only.
        """
        if self.dead_cells is not None:
            return None
        regs = self.registers
        if slots is None:
            dynamic = regs.dynamic_slots()
            slots = [dynamic[self._sl_cursor % len(dynamic)]] if dynamic else []
        if not slots:
            return 0
        r = self.r_view
        eff_r = (r | self.latched) if self.latched.any() else r
        cfgs = [regs.slots[s] for s in slots]
        for cfg in cfgs:
            if len(cfg) and bool(np.any(cfg.b & ~eff_r)):
                return None
        est = eff_r & ~regs.b_star
        if not est.any():
            return 0
        for cfg in cfgs:
            free = ~cfg.input_busy()[:, None] & ~cfg.output_busy()[None, :]
            if bool(np.any(est & free)):
                return None
        return int(np.count_nonzero(est))

    def skip_inert_passes(self, j: int, blocked: int) -> None:
        """Apply ``j`` passes :meth:`inert_blocked` proved inert.

        Each one changes only what a real :meth:`sl_pass` that toggles
        nothing changes: the SL cursor and the rotation advance, and the
        pass and its ``blocked`` cells are counted — or, with no dynamic
        slot, an idle pass is counted.  Nothing is traced.
        """
        if not self.registers.dynamic_slots():
            self.counters.inc("passes_idle", j)
            return
        self._sl_cursor += j
        self.rotation.advance(j)
        self.counters.inc("passes", j)
        self.counters.inc("blocked", j * blocked)

    def _trace_pass(self, slot: int, outcome: PassOutcome) -> None:
        """Record one SL pass and its per-connection toggles."""
        now = self.clock()
        self.tracer.record(
            now,
            "sl-pass",
            slot=slot,
            toggles=len(outcome.toggles),
            blocked=outcome.blocked,
        )
        for t in outcome.toggles:
            self.tracer.record(
                now,
                "conn-establish" if t.establish else "conn-release",
                src=t.u,
                dst=t.v,
                slot=slot,
            )

    # -- convenience ---------------------------------------------------------------

    def established_anywhere(self, u: int, v: int) -> bool:
        return bool(self.registers.b_star[u, v])

    def __repr__(self) -> str:
        return (
            f"Scheduler(n={self.n}, k={self.k}, "
            f"active={self.registers.active_slots()}, pinned={sorted(self.registers.pinned)})"
        )
