"""Tests for multi-hop TDM over switch graphs (repro.networks.multiswitch).

Covers the scale-out acceptance bar: byte-identical determinism across
invocations and job counts, flow conservation under a seeded per-hop
trunk-fault campaign, the tick-by-tick run of every multi-switch cell, and the
cross-validation regression pinning the simulator to the analytic
:class:`~repro.networks.multihop.MultiHopModel` within one TDM slot.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.faults.injector import FaultInjector
from repro.faults.schedule import FaultSchedule
from repro.networks.multihop import MultiHopModel
from repro.networks.multiswitch import MultiSwitchTdmNetwork
from repro.networks.registry import RunSpec, build_network, get_scheme, run_scheme
from repro.params import PAPER_PARAMS
from repro.topo import fat_tree, full_mesh, line
from repro.traffic.base import TrafficPhase
from repro.types import Message

PARAMS64 = PAPER_PARAMS.with_overrides(n_ports=64)


def _mesh64():
    return full_mesh(64, n_switches=16, links_per_pair=4)


def _workload(n=64, count=300, seed=11):
    """Fresh Message objects every call — messages are single-use."""
    gen = np.random.default_rng(seed)
    msgs, t = [], 0
    for _ in range(count):
        u = int(gen.integers(0, n))
        v = int(gen.integers(0, n - 1))
        if v >= u:
            v += 1
        t += int(gen.integers(0, 30_000))
        msgs.append(Message(src=u, dst=v, size=int(gen.integers(40, 400)), inject_ps=t))
    return [TrafficPhase("load", msgs)]


def _signature(result):
    return [
        (r.src, r.dst, r.inject_ps, r.start_ps, r.done_ps) for r in result.records
    ]


class TestCrossValidation:
    """Satellite: simulated multi-hop TDM vs the analytic MultiHopModel.

    Contention-free first-message and cached-message latencies must agree
    within one slot for every hop count.  The ``line(h)`` topology forces
    exactly ``h`` switches onto the circuit's path.
    """

    @pytest.mark.parametrize("hops", [1, 2, 3, 4])
    def test_first_message_within_one_slot(self, hops):
        params = PAPER_PARAMS.with_overrides(n_ports=2)
        model = MultiHopModel(params, 80)
        net = MultiSwitchTdmNetwork(params, topology=line(hops), strict=True)
        res = net.run([TrafficPhase("p", [Message(src=0, dst=1, size=80, inject_ps=0)])])
        assert len(res.records) == 1
        diff = abs(res.records[0].done_ps - model.tdm_first_message_ps(hops))
        assert diff < params.slot_ps

    @pytest.mark.parametrize("hops", [1, 2, 3, 4])
    def test_cached_message_within_one_slot(self, hops):
        params = PAPER_PARAMS.with_overrides(n_ports=2)
        model = MultiHopModel(params, 80)
        # probe run: when does the first message's slot actually drain?
        probe = MultiSwitchTdmNetwork(params, topology=line(hops), strict=True)
        res0 = probe.run(
            [TrafficPhase("p", [Message(src=0, dst=1, size=80, inject_ps=0)])]
        )
        # the second message lands just after the drain, inside the cached
        # window (the circuit still holds its slots on every hop)
        inj2 = res0.records[0].start_ps + 30_000
        net = MultiSwitchTdmNetwork(params, topology=line(hops), strict=True)
        res = net.run(
            [
                TrafficPhase(
                    "p",
                    [
                        Message(src=0, dst=1, size=80, inject_ps=0),
                        Message(src=0, dst=1, size=80, inject_ps=inj2),
                    ],
                )
            ]
        )
        rec2 = [r for r in res.records if r.inject_ps == inj2][0]
        diff = abs((rec2.done_ps - inj2) - model.tdm_cached_message_ps(hops))
        assert diff < params.slot_ps

    def test_establishment_latency_is_exact(self):
        """Contention-free establishment = request + h passes + grant."""
        params = PAPER_PARAMS.with_overrides(n_ports=2)
        model = MultiHopModel(params, 80)
        for hops in (1, 2, 3):
            net = MultiSwitchTdmNetwork(params, topology=line(hops), strict=True)
            res = net.run(
                [TrafficPhase("p", [Message(src=0, dst=1, size=80, inject_ps=0)])]
            )
            assert res.counters["est_latency_count"] == 1
            assert (
                res.counters["est_latency_sum_ps"]
                == model.tdm_establishment_ps(hops)
            )


class TestDeterminism:
    def test_double_run_byte_identical(self):
        r1 = MultiSwitchTdmNetwork(PARAMS64, topology=_mesh64(), strict=True).run(
            _workload()
        )
        r2 = MultiSwitchTdmNetwork(PARAMS64, topology=_mesh64(), strict=True).run(
            _workload()
        )
        assert _signature(r1) == _signature(r2)
        assert r1.counters == r2.counters

    def test_fattree_double_run_byte_identical(self):
        topo = lambda: fat_tree(64, leaf_size=16, taper=1)
        r1 = MultiSwitchTdmNetwork(PARAMS64, topology=topo(), strict=True).run(
            _workload()
        )
        r2 = MultiSwitchTdmNetwork(PARAMS64, topology=topo(), strict=True).run(
            _workload()
        )
        assert _signature(r1) == _signature(r2)

    def test_scaleout_jobs_invariant(self):
        """The scale-out sweep is bit-identical across worker counts."""
        from repro.experiments.scaleout import run_scaleout

        kwargs = dict(
            endpoints=(64,), messages_per_endpoint=2, cache=False, faults=True
        )
        serial = run_scaleout(jobs=1, **kwargs)
        fanned = run_scaleout(jobs=8, **kwargs)
        assert serial.points == fanned.points
        assert serial.csv() == fanned.csv()

    def test_scaleout_strict_matches_default(self, monkeypatch):
        """Multi-switch cells always run tick by tick, so a strict sweep
        equals the default one; no cell reports a fast-path fallback."""
        from repro.experiments.scaleout import run_scaleout
        from repro.networks.base import STRICT_ENV_VAR

        kwargs = dict(
            endpoints=(64,), messages_per_endpoint=2, cache=False,
            faults=False, jobs=1,
        )
        monkeypatch.delenv(STRICT_ENV_VAR, raising=False)
        plain = run_scaleout(**kwargs)
        monkeypatch.setenv(STRICT_ENV_VAR, "1")
        strict = run_scaleout(**kwargs)
        assert strict.csv() == plain.csv()
        assert strict.format() == plain.format()
        assert all(p.fastpath_fallbacks == 0 for p in plain.points)


class TestConservationAndFaults:
    def test_all_messages_delivered_healthy(self):
        res = MultiSwitchTdmNetwork(PARAMS64, topology=_mesh64(), strict=True).run(
            _workload()
        )
        assert len(res.records) == 300
        assert not res.drops

    def test_trunk_fault_campaign_conserves(self):
        """Per-hop faults: every byte is delivered or an explicit drop."""
        faults = (
            (400_000, 3, "down", 500_000),
            (800_000, 17, "down", 400_000),
            (1_200_000, 3, "dead", 0),
            (2_000_000, 44, "down", 300_000),
            (3_000_000, 17, "dead", 0),
        )

        def run_once():
            net = MultiSwitchTdmNetwork(
                PARAMS64,
                topology=_mesh64(),
                strict=True,
                trunk_faults=faults,
                faults=FaultInjector(FaultSchedule(events=())),
            )
            return net.run(_workload())

        r1 = run_once()
        # run() already asserts ledger conservation; check accounting too
        assert len(r1.records) + len(r1.drops) == 300
        assert r1.counters["fault_trunk_transients"] == 3
        assert r1.counters["fault_trunk_dead"] == 2
        # the campaign replays deterministically
        r2 = run_once()
        assert _signature(r1) == _signature(r2)
        assert r1.counters == r2.counters

    def test_trunk_fault_plan_validated(self):
        with pytest.raises(ConfigurationError):
            MultiSwitchTdmNetwork(
                PARAMS64,
                topology=_mesh64(),
                trunk_faults=((0, 9999, "down", 100),),
                faults=FaultInjector(FaultSchedule(events=())),
            )
        with pytest.raises(ConfigurationError):
            MultiSwitchTdmNetwork(
                PARAMS64,
                topology=_mesh64(),
                trunk_faults=((0, 1, "explode", 100),),
                faults=FaultInjector(FaultSchedule(events=())),
            )
        with pytest.raises(ConfigurationError):
            # a plan without an injector has no recovery ladder to ride
            MultiSwitchTdmNetwork(
                PARAMS64,
                topology=_mesh64(),
                trunk_faults=((0, 1, "down", 100),),
            )

    def test_dead_trunk_reroutes_over_mesh(self):
        """Killing every parallel link of one trunk must not drop traffic:
        the mesh reroutes through an intermediate switch."""
        topo = _mesh64()
        # endpoints 0 (switch 0) and 4 (switch 1): kill trunk (0, 1)
        victim_links = topo.trunk_links(0, 1)
        plan = tuple((200_000, link, "dead", 0) for link in victim_links)
        msgs = [
            Message(src=0, dst=4, size=200, inject_ps=1_000_000 + 40_000 * i)
            for i in range(4)
        ]
        net = MultiSwitchTdmNetwork(
            PARAMS64,
            topology=topo,
            strict=True,
            trunk_faults=plan,
            faults=FaultInjector(FaultSchedule(events=())),
        )
        res = net.run([TrafficPhase("p", msgs)])
        assert len(res.records) == 4  # all delivered via a 3-switch detour


class TestTickByTick:
    def test_multi_switch_runs_are_ineligible_for_the_shortcuts(self):
        from repro.sim.fastpath import fastpath_ineligible

        net = MultiSwitchTdmNetwork(PARAMS64, topology=_mesh64())
        plain = net.run(_workload())
        assert fastpath_ineligible(net) == "multi-switch fabric is scheduled per hop"
        ref = MultiSwitchTdmNetwork(PARAMS64, topology=_mesh64(), strict=True).run(
            _workload()
        )
        assert _signature(plain) == _signature(ref)
        assert "fastpath_fallback" not in plain.counters


class TestRegistryIntegration:
    def test_composite_schemes_resolve_like_paper_schemes(self):
        for scheme in ("mesh-tdm", "fattree-tdm"):
            caps = get_scheme(scheme).capabilities
            assert caps.multi_switch
            assert caps.fault_recovery
            net = build_network(RunSpec(scheme=scheme, params=PARAMS64))
            assert isinstance(net, MultiSwitchTdmNetwork)
            assert net.scheme == scheme

    def test_alias_and_topology_options(self):
        res = run_scheme(
            RunSpec(
                scheme="fm16-tdm",
                params=PARAMS64,
                strict=True,
                options={"links_per_pair": 2},
            ),
            _workload(count=60),
        )
        assert res.counters["topo_trunk_links"] == 16 * 15 // 2 * 2
        assert len(res.records) == 60

    def test_single_switch_guards(self):
        # TdmNetwork refuses a multi-switch topology...
        from repro.networks.tdm import TdmNetwork

        with pytest.raises(ConfigurationError):
            TdmNetwork(PARAMS64, topology=_mesh64())
        # ...and the endpoint count must match params.n_ports
        from repro.errors import SimulationError

        with pytest.raises(SimulationError):
            MultiSwitchTdmNetwork(
                PAPER_PARAMS.with_overrides(n_ports=128), topology=_mesh64()
            )


class TestSchedulingInternals:
    def test_shared_cell_different_slots_release_safely(self):
        """Two circuits may hold the same (in, out) cell in different
        slots; tearing one down must not expose the other to the owning
        switch's autonomous release (the latch is reference-counted)."""
        params = PAPER_PARAMS.with_overrides(n_ports=4)
        # 2-switch line variant: endpoints 0,1 home on switch 0; 2,3 on 1
        topo = full_mesh(4, n_switches=2, links_per_pair=1)
        # (0 -> 2) and (1 -> 3) share the single trunk link on both ends;
        # staggered finish forces one teardown while the other stays up
        msgs = [
            Message(src=0, dst=2, size=80, inject_ps=0),
            Message(src=1, dst=3, size=80, inject_ps=0),
            Message(src=1, dst=3, size=2000, inject_ps=10_000),
            Message(src=1, dst=3, size=2000, inject_ps=700_000),
        ]
        net = MultiSwitchTdmNetwork(params, topology=topo, strict=True)
        res = net.run([TrafficPhase("p", msgs)])
        assert len(res.records) == 4

    def test_coordinator_resolves_contention(self):
        """A hot-spot workload must fall through to the coordinator and
        still deliver everything."""
        res = MultiSwitchTdmNetwork(
            PARAMS64, topology=_mesh64(), strict=True
        ).run(_workload(count=500, seed=3))
        assert len(res.records) == 500
        assert res.counters["circuit_naks"] > 0

    def test_counters_expose_topology(self):
        res = MultiSwitchTdmNetwork(PARAMS64, topology=_mesh64(), strict=True).run(
            _workload(count=50)
        )
        assert res.counters["topo_switches"] == 16
        assert res.counters["topo_diameter"] == 2
        assert res.counters["topo_trunk_links"] == 480
        assert res.counters["slot_transfers"] > 0
        # per-switch SL counters aggregate under the sl_ prefix
        assert res.counters["sl_establishes"] >= res.counters["circuits_established"] - res.counters["circuits_coordinated"]
