"""The single-crossbar TDM data plane and its slot-synchronous shortcuts.

Every :class:`~repro.networks.tdm.TdmNetwork` run owns one
:class:`FastPath`.  Its :meth:`FastPath.transfer_slot` is the network's
only per-slot transfer, in every run (windowed, strict, traced,
faulted): it turns the slot's configuration into endpoint coordinates
for the select-and-drain all slotted networks share,
:meth:`~repro.networks.base.BaseNetwork._drain_slot` (one vector mask
over the ``(n, n)`` queue-byte matrix for grant arrival, pending bytes
and link state, then :meth:`~repro.nic.queues.VirtualOutputQueues.drain`
per selected connection and the ledger post).  The network applies its
reactions (predictor, deliveries, trace records, ...) to what the
transfer reports.

The rest of this module exploits the regularity of the two periodic
events — the TDM slot tick and the SL scheduler tick — whose work is, for
long stretches of a run, completely predictable.  These layers are armed
for every run that :func:`fastpath_ineligible` accepts, and change no
observable of the simulation.  Strict mode (``strict=True`` /
``REPRO_STRICT=1``) is one of the reasons a run is ineligible: a strict
run executes every tick through the heap and audits every memoised SL
pass, so it is the tick-by-tick reference the shortcuts are checked
against (CI diffs default runs against strict ones on real sweeps).

* when a *quiescent window* is proven — an interval in which the scheduler
  is inert, per-slot transfers are pure arithmetic, and **no other heap
  event fires** — every tick inside it is applied in closed form at the
  moment the window opens: slot/SL counters advance in bulk, the bytes the
  window will move are debited from queues and credited to the ledger, the
  two clocks are re-timed past the window, and the skipped periodic events
  are credited to ``Simulator.events_executed`` (each one's effect *was*
  executed, just not through the heap), so event counts and every
  ``RunResult`` field stay **byte-identical** to the tick-by-tick path;
* outside windows, an SL tick whose pass
  :meth:`~repro.sched.scheduler.Scheduler.inert_blocked` proves inert
  (:meth:`FastPath.handle_sl_tick`) skips the full pass and applies its
  only effects — cursor, rotation, pass counters — through
  :meth:`~repro.sched.scheduler.Scheduler.skip_inert_passes`;
* the scheduler's wavefront evaluator is swapped for
  :func:`~repro.sched.slarray.wavefront_batch` (bit-identical by
  construction; see its property tests).

A window may open, at the end of a normal slot tick at time ``t0``, only
when ALL of the following hold (checked against live state, never cached
across ticks):

* the run is eligible at all (:func:`fastpath_ineligible`);
* the predictor is the :class:`~repro.predict.base.NullPredictor`, no
  prefetcher and no boost policy are attached, and no preload-batch load
  is in flight — these act on their own clocks and would mutate scheduler
  state mid-window;
* every SL pass inside the window is provably inert, whichever dynamic
  slot it schedules (:meth:`~repro.sched.scheduler.Scheduler.inert_blocked`
  over all of them: no release candidate, and no establish candidate
  with a free input-and-output pair), so each one blocks the same
  number of cells;
* every connection in a slot the frozen TDM counter will apply (one
  period of :meth:`~repro.sched.tdm.TdmCounter.cycle`: with the useful
  slots frozen, the counter's sequence is a pure cycle) either has
  no pending bytes, or is fully ready (its grant has propagated:
  ``conn_ready <= t0``) with an already-injected head message — otherwise
  service would start mid-window without a heap event marking the change.

The window then ends strictly before the earliest of: the first message
completion on any served connection, the tick at which the current preload
batch would drain to zero, and the first non-tick heap event (so nothing
at all happens *inside* a window; the breaking tick itself runs through
the fully general event-driven code).  A window no heap event bounds is
refused: a run that deadlocks with its clocks spinning must keep spinning
into the event valve exactly like the tick-by-tick path does.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..predict.base import NullPredictor
from ..sched.scheduler import Scheduler
from ..sched.slarray import wavefront_batch
from .engine import Event, Priority

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (tdm imports us)
    from ..fabric.config import ConfigMatrix
    from ..networks.base import BaseNetwork
    from ..networks.tdm import TdmNetwork
    from ..nic.queues import DrainedMessage

__all__ = ["fastpath_ineligible", "FastPath"]

#: a window shorter than this many slot ticks is not worth the entry
#: analysis plus the clock re-timing it buys
_MIN_WINDOW_SLOTS = 2


def fastpath_ineligible(net: "BaseNetwork") -> str | None:
    """Why ``net``'s current run cannot arm the shortcuts (None: it can).

    The quiescent windows, the inert-SL-pass shortcut and the batch
    wavefront serve exactly the regular core of the model: one crossbar
    driven by a plain single-unit
    :class:`~repro.sched.scheduler.Scheduler` with no tracing, no fault
    campaign and no strict checking.  Everything else — multi-switch
    fabrics with their per-hop trunk scheduling, fault injection with its
    watchdog windows, multi-unit or fabric-constrained schedulers, event
    tracing, strict mode (the reference the shortcuts are checked
    against) — runs tick by tick (a single-crossbar run still transfers
    through :meth:`FastPath.transfer_slot`).  The returned reason is always
    a nonempty string, fit for a CLI summary.
    """
    if not net.topology.is_single_switch:
        return "multi-switch fabric is scheduled per hop"
    if net.tracer.enabled:
        return "event tracing is enabled"
    if net._faults_active:
        return "a fault schedule is active"
    if net.strict:
        return "strict mode runs every tick as the reference"
    if type(getattr(net, "scheduler", None)) is not Scheduler:
        return "non-plain scheduler (multi-unit or fabric-constrained)"
    return None


def _count_before(positions: list[int], m: int, p: int) -> int:
    """Service turns among the first ``m`` ticks of a period-``p`` cycle.

    ``positions`` holds the (sorted) tick indices, ``0 .. p-1``, of one
    connection's service turns within the first period.
    """
    full, rem = divmod(m, p)
    return full * len(positions) + sum(1 for i in positions if i < rem)


def _index_of_occurrence(positions: list[int], k: int, p: int) -> int:
    """Tick index of the ``k``-th (1-based) service turn."""
    full, rem = divmod(k - 1, len(positions))
    return full * p + positions[rem]


class FastPath:
    """Per-run data-plane state for one TdmNetwork run.

    Created in ``TdmNetwork._reset_scheme_state`` for every run; owns the
    per-slot transfer, an adaptor onto the network's shared
    select-and-drain.  Eligible runs (:attr:`armed`) also get the
    quiescent-window machinery, the inert-pass shortcut and the batch
    wavefront.  All effects are
    bit-identical to the tick-by-tick path, so nothing here appears in
    ``RunResult`` counters; :meth:`stats` exposes diagnostics through a
    side channel instead.
    """

    def __init__(self, net: "TdmNetwork") -> None:
        assert net.scheduler is not None
        self.net = net
        self.sim = net.sim
        self.sched = net.scheduler
        #: windows, the inert-pass shortcut and the batch wavefront are
        #: armed for every run the eligibility gate accepts
        self.armed = fastpath_ineligible(net) is None
        if self.armed:
            # the batch wavefront is bit-identical to the sparse walk and
            # walks only the L cells that can still establish
            self.sched.wavefront = wavefront_batch
        self._quiet_capable = (
            self.armed
            and isinstance(net.predictor, NullPredictor)
            and net.prefetcher is None
            and net.boost_policy is None
        )
        # diagnostics (side channel only — never RunResult counters)
        self.windows_opened = 0
        self.quiet_slot_ticks = 0
        self.quiet_sl_ticks = 0
        self.window_denials = 0
        self.trivial_sl_ticks = 0
        #: windows are impossible before this time (a near heap event was
        #: seen); purely an attempt filter — skipping an attempt never
        #: changes observables, only how fast a denial is reached
        self._skip_until = 0

    def stats(self) -> dict[str, int]:
        """Shortcut diagnostics (not part of any byte-compared output)."""
        return {
            "windows_opened": self.windows_opened,
            "quiet_slot_ticks": self.quiet_slot_ticks,
            "quiet_sl_ticks": self.quiet_sl_ticks,
            "window_denials": self.window_denials,
            "trivial_sl_ticks": self.trivial_sl_ticks,
        }

    # -- the provably-empty SL pass -------------------------------------------

    def handle_sl_tick(self) -> bool:
        """Run one SL tick whose pass is provably a no-op; False: run it.

        Outside quiescent windows most SL passes find an empty
        pre-scheduling matrix and change nothing but the cursor, the
        rotation, and the pass counters.  Inertness is decided for the
        slot this pass would schedule
        (:meth:`~repro.sched.scheduler.Scheduler.inert_blocked`), so the
        replicated effects are exact, not approximate.
        """
        if not self._quiet_capable:
            return False
        sched = self.sched
        blocked = sched.inert_blocked()
        if blocked is None:
            return False  # the pass would toggle: run the real one
        sched.skip_inert_passes(1, blocked)
        self.trivial_sl_ticks += 1
        self.net._rearm_sl_clock(self.net._sl_tick)
        return True

    # -- quiescent windows -----------------------------------------------------

    def maybe_open_window(self) -> None:
        """Apply a quiescent window in closed form, if one is provable.

        Called at the end of a normal slot tick, after both clocks are
        re-armed.  On success every in-window tick's effect is applied
        immediately (nothing else can observe intermediate state: by
        construction no heap event fires strictly inside the window), the
        clocks are re-timed to their first post-window tick, and the
        skipped events are credited to the simulator's executed count.
        """
        net = self.net
        sched = self.sched
        if not self._quiet_capable or net._batch_loading:
            return
        t = self.sim.now
        if t < self._skip_until:
            self.window_denials += 1
            return
        slot_ps = net.params.slot_ps

        # scan the heap up front: it is the cheapest gate, and while wire
        # events are in flight (request/grant dances between phases) the
        # near horizon denies the window before any matrix analysis runs.
        # The same scan finds the armed clock events the commit re-times
        # and the first break: the earliest non-clock heap event.
        slot_fn = net._slot_tick
        sl_fn = net._sl_tick
        horizon: int | None = None
        slot_ev: Event | None = None
        sl_ev: Event | None = None
        for entry in self.sim._heap:
            ev = entry[3]
            fn = ev.fn
            if fn is None:
                continue
            if fn == slot_fn:
                slot_ev = ev
            elif fn == sl_fn:
                sl_ev = ev
            elif horizon is None or entry[0] < horizon:
                horizon = entry[0]
        if slot_ev is None or sl_ev is None:  # pragma: no cover - always armed
            self.window_denials += 1
            return
        if horizon is not None and horizon <= t + _MIN_WINDOW_SLOTS * slot_ps:
            # an event only leaves the heap by executing, so every slot
            # tick before `horizon` passes is denied for the same reason
            self._skip_until = horizon
            self.window_denials += 1
            return

        # scheduler inertness: every in-window pass, whichever dynamic slot
        # it schedules, must toggle nothing
        regs = sched.registers
        est_count = sched.inert_blocked(regs.dynamic_slots())
        if est_count is None:
            self.window_denials += 1
            return

        # the frozen TDM counter's slot sequence: one period of a pure cycle;
        # `turns` holds each applied slot's tick indices within the period,
        # slots in the order of their first turn
        tdm = sched.tdm
        cycle = tdm.cycle(sched.r_view if net.skip_idle_slots else None)
        p = len(cycle)
        turns: dict[int, list[int]] = {}
        for i, s in enumerate(cycle):
            turns.setdefault(s, []).append(i)

        # per-slot service analysis; any connection whose service could
        # *start* mid-window (grant or head injection still in flight)
        # vetoes the window.  The first break is the earliest tick a served
        # head would complete on: within one slot the completing turn only
        # grows with the head's remaining bytes, so the slot's shortest
        # head decides it.  The break only moves earlier as slots are
        # added, so a break too near to leave a window ends the analysis.
        conn_ready = net.conn_ready
        qb = net.queue_bytes
        slot_bytes = net.params.slot_bytes
        nics = net.nics
        batch_conns = net._batch_conns
        #: per applied slot: (slot, turns, connections, movers' u, v, batch movers)
        served: list[tuple[int, list[int], int, list[int], list[int], int]] = []
        break_idx: int | None = None
        for s, pos in turns.items():
            rtc = regs.slots[s].row_to_col
            us = np.nonzero(rtc >= 0)[0]
            vs = rtc[us]
            act = qb[us, vs] > 0
            aus = us[act]
            avs = vs[act]
            if bool(np.any(conn_ready[aus, avs] > t)):
                self.window_denials += 1
                return
            mu = aus.tolist()
            mv = avs.tolist()
            n_batch = 0
            if mu:
                remaining = 0
                for u, v in zip(mu, mv):
                    head = nics[u].voqs.head(v)
                    assert head is not None
                    if head.inject_ps > t:
                        self.window_denials += 1
                        return
                    if not remaining or head.remaining < remaining:
                        remaining = head.remaining
                idx = _index_of_occurrence(pos, -(-remaining // slot_bytes), p)
                if break_idx is None or idx < break_idx:
                    break_idx = idx
                    if idx < _MIN_WINDOW_SLOTS:
                        self._skip_until = t + (idx + 1) * slot_ps
                        self.window_denials += 1
                        return
                if batch_conns:
                    n_batch = sum(1 for conn in zip(mu, mv) if conn in batch_conns)
            served.append((s, pos, len(us), mu, mv, n_batch))
        if len(served) > 1:
            # a connection established in several slots is served on the
            # union of their turns, so it may complete before its slots'
            # own analyses say
            n = len(nics)
            keys = np.concatenate(
                [np.asarray(mu, dtype=np.int64) * n + mv for _, _, _, mu, mv, _ in served]
            )
            uniq, counts = np.unique(keys, return_counts=True)
            if len(uniq) < len(keys):
                idx = self._multi_slot_break(served, set(uniq[counts > 1].tolist()), p)
                if break_idx is None or idx < break_idx:
                    break_idx = idx

        # second break: the tick the current preload batch drains to zero
        # (that tick must run normally — it schedules the next batch load)
        if net._program is not None and net._batch_remaining > 0:
            units = -(-net._batch_remaining // slot_bytes)
            bslot = {s: n_batch for s, _, _, _, _, n_batch in served}
            bidx = self._batch_break_index(cycle, bslot, units)
            if bidx is not None and (break_idx is None or bidx < break_idx):
                break_idx = bidx

        end: int | None = None if break_idx is None else t + (break_idx + 1) * slot_ps
        if horizon is not None and (end is None or horizon < end):
            end = horizon
        if end is None:
            # nothing bounds the window: the tick-by-tick path would tick
            # forever into its per-phase event valve, and so must we
            self.window_denials += 1
            return
        m = (end - t - 1) // slot_ps  # slot ticks strictly inside the window
        if m < _MIN_WINDOW_SLOTS:
            # `end` only moves earlier as t advances (the same break is
            # still there), so attempts before it stay denied as well
            self._skip_until = end
            self.window_denials += 1
            return

        # ---- commit: apply every in-window tick in closed form ----------
        sl_ps = net.params.scheduler_pass_ps
        ts1 = sl_ev.time
        j_m = 0 if ts1 >= end else (end - ts1 - 1) // sl_ps + 1

        if not cycle:
            tdm.idle_ticks += m
        else:
            crossbar = net.crossbar
            assert crossbar is not None
            tdm.advances += m
            last = cycle[(m - 1) % p]
            tdm.current = last
            # the tick-by-tick path reloads the active configuration every
            # applied slot; only the last load is observable
            crossbar.reconfigurations += m
            crossbar.active.load(regs.slots[last])
            byte_ps = net.params.byte_ps
            ledger = net.ledger
            # slots drain in first-turn order, so a head served in several
            # slots starts on its earliest turn; nothing completes in a
            # window, so its partial drains add up to one
            for s, pos, n_conns, mu, mv, n_batch in served:
                occ = _count_before(pos, m, p)
                net._slot_opportunities += occ * n_conns
                if occ == 0 or not mu:
                    continue
                net._slot_transfers += occ * len(mu)
                budget = occ * slot_bytes
                start = t + (pos[0] + 1) * slot_ps
                for u, v in zip(mu, mv):
                    moved, done = nics[u].voqs.drain(v, budget, start, byte_ps)
                    assert not done, "window overran a message completion"
                    ledger.send(u, v, moved)
                net._batch_remaining -= n_batch * budget

        if j_m:
            # j_m inert passes, each blocking the same |E| cells
            sched.skip_inert_passes(j_m, est_count)
            sl_ev.cancel()
            self.sim.schedule_at(
                ts1 + j_m * sl_ps, net._sl_tick, priority=Priority.SCHEDULER
            )

        slot_ev.cancel()
        self.sim.schedule_at(
            t + (m + 1) * slot_ps, net._slot_tick, priority=Priority.FABRIC
        )
        # the skipped periodic events *were* executed — in closed form,
        # above — so the executed count (and RunResult's "events" counter)
        # stays identical to the tick-by-tick path
        self.sim.events_executed += m + j_m

        self.windows_opened += 1
        self.quiet_slot_ticks += m
        self.quiet_sl_ticks += j_m

    def _multi_slot_break(
        self,
        served: list[tuple[int, list[int], int, list[int], list[int], int]],
        multi: set[int],
        p: int,
    ) -> int:
        """Earliest completion tick among the connections ``u * n + v`` in
        ``multi``, each served on the union of its slots' turns."""
        net = self.net
        n = len(net.nics)
        turns_of: dict[int, list[int]] = {}
        for _, pos, _, mu, mv, _ in served:
            for u, v in zip(mu, mv):
                if u * n + v in multi:
                    turns_of.setdefault(u * n + v, []).extend(pos)
        slot_bytes = net.params.slot_bytes
        best: int | None = None
        for key, pos in turns_of.items():
            head = net.nics[key // n].voqs.head(key % n)
            assert head is not None
            pos.sort()
            idx = _index_of_occurrence(pos, -(-head.remaining // slot_bytes), p)
            if best is None or idx < best:
                best = idx
        assert best is not None
        return best

    @staticmethod
    def _batch_break_index(
        cycle: list[int], bslot: dict[int, int], units: int
    ) -> int | None:
        """Tick index at which ``units`` batch-connection drains accumulate."""
        per_cycle = sum(bslot[s] for s in cycle)
        if per_cycle == 0:
            return None
        full, need = divmod(units - 1, per_cycle)
        acc = 0
        for j, s in enumerate(cycle):
            acc += bslot[s]
            if acc > need:
                return full * len(cycle) + j
        return None  # pragma: no cover - need < per_cycle by construction

    # -- the per-slot transfer ------------------------------------------------

    def transfer_slot(
        self,
        cfg: "ConfigMatrix",
        t: int,
        conn_ready: np.ndarray,
        link_down: np.ndarray | None,
    ) -> list[tuple[int, int, int, list["DrainedMessage"]]]:
        """Move up to one slot's bytes over every connection of ``cfg``.

        Hands the configuration's connections, in input-port order, to the
        network's shared :meth:`~repro.networks.base.BaseNetwork._drain_slot`
        with the grant-ready matrix and, under faults, the link-down mask.
        """
        rtc = cfg.row_to_col
        us = np.nonzero(rtc >= 0)[0]
        return self.net._drain_slot(us, rtc[us], t, conn_ready, link_down)
