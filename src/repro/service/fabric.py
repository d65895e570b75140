"""The live fabric a service instance administers.

:class:`LiveFabric` is a :class:`~repro.networks.base.BaseNetwork` that is
never driven by traffic phases: the service core establishes and releases
circuits *online* through the same machinery the batch schemes use — the
real :class:`~repro.sched.scheduler.Scheduler` (SL array, configuration
registers, management plane), the
:class:`~repro.networks.lifecycle.ConnectionManager` (link state,
watchdogs, retry/escalate/give-up), and the
:class:`~repro.faults.injector.FaultInjector` hooks inherited from the
base class.  Because the fault hooks are the inherited ones, a chaos
campaign hits the service through exactly the code path the batch fault
sweeps exercise.

The scheme is resolved through the registry
(:func:`repro.networks.registry.get_scheme`) and must be one of the TDM
modes — the service needs a request plane and a central register file.
Preload/hybrid modes pin slots with configurations compiled (greedy edge
colouring) from the workload's *predicted* hot pairs, the paper's
predictive-preload idea applied to a live working set.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from ..compiled.coloring import decompose
from ..errors import ConfigurationError
from ..faults.injector import FaultInjector
from ..networks.base import BaseNetwork
from ..networks.registry import get_scheme
from ..obs.events import Kind
from ..params import SystemParams
from ..sched.scheduler import Scheduler
from ..sim.trace import Tracer
from ..traffic.base import TrafficPhase
from .model import ServiceConfig

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .core import SwitchService

__all__ = ["LiveFabric"]


class LiveFabric(BaseNetwork):
    """One crossbar + scheduler administered online by a service core."""

    scheme = "service"

    def __init__(
        self,
        cfg: ServiceConfig,
        params: SystemParams,
        *,
        tracer: Tracer | None = None,
        faults: FaultInjector | None = None,
        strict: bool | None = None,
    ) -> None:
        info = get_scheme(cfg.scheme)
        caps = info.capabilities
        if not caps.request_plane or not caps.tdm_modes:
            raise ConfigurationError(
                f"the service needs a TDM scheme with a request plane; "
                f"{info.name!r} provides neither (choose one of "
                f"dynamic-tdm, preload, hybrid)"
            )
        super().__init__(params, tracer, faults=faults, strict=strict)
        self.cfg = cfg
        self.scheme = f"service-{info.name}"
        self.mode = caps.tdm_modes[0]
        if self.mode == "dynamic":
            self.k_preload = 0
        elif self.mode == "preload":
            self.k_preload = cfg.k
        else:  # hybrid
            self.k_preload = cfg.k_preload if cfg.k_preload is not None else max(1, cfg.k // 2)
        self.scheduler = Scheduler(params, cfg.k)
        self._wire_scheduler(self.scheduler)
        #: pairs currently resident in pinned (preloaded) slots
        self.preloaded_pairs: set[tuple[int, int]] = set()
        #: circuits left behind in stuck slots by a failed teardown
        self.orphaned = 0

    # -- wiring ------------------------------------------------------------------

    def attach(self, service: "SwitchService") -> None:
        """Bind the service core as lifecycle client and arm the injector."""
        self.lifecycle.attach_scheduler(self.scheduler, service)
        if self.fault_injector is not None:
            self.fault_injector.bind(self)

    def _execute_phase(self, phase: TrafficPhase) -> None:  # pragma: no cover
        raise ConfigurationError(
            "LiveFabric is driven online by a service core, not by traffic phases"
        )

    # -- predictive preload ---------------------------------------------------------

    def preload_pairs(self, pairs: Iterable[tuple[int, int]]) -> int:
        """Pin up to ``k_preload`` slots with the predicted working set.

        ``pairs`` (most-likely-first) are greedily edge-coloured into
        configurations; the first ``k_preload`` configurations are loaded
        pinned.  Returns how many pairs ended up resident.
        """
        if self.k_preload == 0:
            return 0
        wanted = list(dict.fromkeys(pairs))
        if not wanted:
            return 0
        # keep only as many pairs as k_preload slots can possibly hold
        configs = decompose(wanted, self.params.n_ports)[: self.k_preload]
        self.scheduler.preload(configs, pin=True)
        for index, cfg in enumerate(configs):
            conns = list(cfg.connections())
            self.preloaded_pairs.update(conns)
            self.tracer.record(
                self.sim.now, Kind.PRELOAD_BATCH, index=index, conns=len(conns)
            )
        return len(self.preloaded_pairs)

    def degrade_preload(self) -> int:
        """Preload -> dynamic fallback: hand pinned slots to the scheduler.

        Resident preload circuits stay established until the dynamic
        scheduler releases them for new work (their request bits are only
        high while leased), so the fallback is graceful, not a flush.
        Returns the number of slots unpinned.
        """
        regs = self.scheduler.registers
        slots = sorted(regs.pinned)
        for slot in slots:
            regs.unpin(slot)
        if slots:
            self.tracer.record(self.sim.now, Kind.DEGRADE, slots=len(slots))
            self.preloaded_pairs.clear()
        return len(slots)

    # -- circuit plane (called by the service core) ----------------------------------

    def established(self, u: int, v: int) -> bool:
        return bool(self.scheduler.registers.b_star[u, v])

    def raise_request(self, u: int, v: int) -> None:
        self.scheduler.set_request(u, v, True)
        if self.tracer.enabled:
            self.tracer.record(self.sim.now, Kind.REQ_RISE, src=u, dst=v)

    def drop_request(self, u: int, v: int) -> None:
        self.scheduler.set_request(u, v, False)
        if self.tracer.enabled:
            self.tracer.record(self.sim.now, Kind.REQ_DROP, src=u, dst=v)

    def sl_pass(self) -> list:
        """One SL clock period; returns the pass's toggles (may be empty)."""
        outcome = self.scheduler.sl_pass().outcome
        return list(outcome.toggles) if outcome is not None else []

    def mgmt_place(self, u: int, v: int) -> int | None:
        """Management-plane direct placement (the best-effort data path)."""
        return self.scheduler.mgmt_establish(u, v)

    def teardown(self, u: int, v: int) -> int:
        """Release (u, v) from every non-pinned in-service slot.

        Pinned slots keep their compiled circuits (preload residents are
        permanent until degradation unpins them).  A stuck slot silently
        keeps the circuit — hardware writes are lost — so the connection
        is counted as *orphaned* until the scrubber quarantines the slot.
        Returns the number of slots actually released.
        """
        regs = self.scheduler.registers
        removed = 0
        for slot in regs.slots_of(u, v):
            if slot in regs.pinned:
                continue
            if slot in regs.stuck:
                self.orphaned += 1
                continue
            regs.release(slot, u, v)
            removed += 1
            if self.tracer.enabled:
                self.tracer.record(
                    self.sim.now, Kind.CONN_RELEASE, src=u, dst=v, slot=slot, via="svc"
                )
        return removed

    # -- link-state reactions (ConnectionManager calls these) --------------------------

    def _on_link_dead(self, port: int) -> None:
        self.lifecycle.disarm_port(port)
        service = self._service()
        if service is not None:
            service.on_port_dead(port)

    def _on_link_down(self, port: int) -> None:
        service = self._service()
        if service is not None:
            service.on_port_down(port)

    def _on_link_up(self, port: int) -> None:
        service = self._service()
        if service is not None:
            service.on_port_up(port)

    def _service(self) -> "SwitchService | None":
        client = self.lifecycle._client
        return client if client is not None else None  # type: ignore[return-value]

    def counters(self) -> dict[str, int]:
        """Fabric-side counters folded into SLO snapshots."""
        regs = self.scheduler.registers
        out = {
            "slots_pinned": len(regs.pinned),
            "slots_stuck": len(regs.stuck),
            "slots_quarantined": len(regs.quarantined),
            "circuits_resident": int(regs.b_star.sum()),
            "orphaned": self.orphaned,
            "ports_down": int(self.lifecycle.link_down.sum()),
            "ports_dead": int(self.lifecycle.link_dead.sum()),
        }
        for key, value in self.scheduler.counters.as_dict().items():
            out[f"sched_{key}"] = value
        return out
