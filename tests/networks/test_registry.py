"""Unit tests for the scheme registry (`repro.networks.registry`)."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.faults import FaultInjector, FaultSchedule
from repro.networks.circuit import CircuitNetwork
from repro.networks.ideal import IdealNetwork
from repro.networks.registry import (
    DEFAULT_INJECTION_WINDOW,
    DEFAULT_K,
    RunSpec,
    build_network,
    get_scheme,
    register_scheme,
    resolve_scheme_name,
    run_scheme,
    scheme_names,
)
from repro.networks.tdm import TdmNetwork
from repro.networks.wormhole import WormholeNetwork
from repro.params import PAPER_PARAMS
from repro.sim.rng import RngStreams
from repro.traffic.scatter import ScatterPattern

PARAMS = PAPER_PARAMS.with_overrides(n_ports=8)


class TestResolution:
    def test_canonical_names_registered(self):
        assert set(scheme_names()) >= {
            "wormhole",
            "circuit",
            "dynamic-tdm",
            "preload",
            "hybrid",
            "ideal",
        }

    @pytest.mark.parametrize(
        "alias, canonical",
        [
            ("tdm", "dynamic-tdm"),
            ("dynamic", "dynamic-tdm"),
            ("tdm-dynamic", "dynamic-tdm"),
            ("tdm-preload", "preload"),
            ("tdm-hybrid", "hybrid"),
            ("wormhole", "wormhole"),
        ],
    )
    def test_aliases_resolve(self, alias, canonical):
        assert resolve_scheme_name(alias) == canonical

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown scheme"):
            resolve_scheme_name("carrier-pigeon")
        with pytest.raises(ConfigurationError):
            build_network(RunSpec("carrier-pigeon", PARAMS))

    def test_duplicate_name_rejected(self):
        info = get_scheme("wormhole")
        with pytest.raises(ConfigurationError):
            register_scheme(
                "wormhole", info.factory, capabilities=info.capabilities
            )

    def test_duplicate_alias_rejected(self):
        info = get_scheme("wormhole")
        with pytest.raises(ConfigurationError):
            register_scheme(
                "wormhole2",
                info.factory,
                aliases=("tdm",),  # taken by dynamic-tdm
                capabilities=info.capabilities,
            )


class TestConstruction:
    def test_wormhole(self):
        assert isinstance(build_network(RunSpec("wormhole", PARAMS)), WormholeNetwork)

    def test_circuit(self):
        assert isinstance(build_network(RunSpec("circuit", PARAMS)), CircuitNetwork)

    def test_ideal(self):
        assert isinstance(build_network(RunSpec("ideal", PARAMS)), IdealNetwork)

    def test_ideal_rejects_faults(self):
        inj = FaultInjector(FaultSchedule(events=()))
        with pytest.raises(ConfigurationError):
            build_network(RunSpec("ideal", PARAMS, faults=inj))

    @pytest.mark.parametrize(
        "scheme, mode", [("dynamic-tdm", "dynamic"), ("preload", "preload")]
    )
    def test_tdm_modes(self, scheme, mode):
        net = build_network(RunSpec(scheme, PARAMS, k=3, injection_window=2))
        assert isinstance(net, TdmNetwork)
        assert net.mode == mode
        assert net.k == 3
        assert net.injection_window == 2

    def test_solstice_tdm_is_preload_with_a_default_computer(self):
        net = build_network(RunSpec("solstice-tdm", PARAMS))
        assert isinstance(net, TdmNetwork)
        assert (net.mode, net.schedule_computer) == ("preload", "solstice")
        net = build_network(
            RunSpec("solstice-tdm", PARAMS, options={"schedule_computer": "coloring"})
        )
        assert (net.mode, net.schedule_computer) == ("preload", "coloring")

    def test_hybrid_preload_split(self):
        net = build_network(RunSpec("hybrid", PARAMS, k=4, k_preload=2))
        assert isinstance(net, TdmNetwork)
        assert net.mode == "hybrid"
        assert (net.k, net.k_preload) == (4, 2)

    def test_options_forwarded(self):
        net = build_network(
            RunSpec("dynamic-tdm", PARAMS, options={"n_sl_units": 2})
        )
        assert isinstance(net, TdmNetwork)

    def test_unknown_option_surfaces_as_typeerror(self):
        with pytest.raises(TypeError):
            build_network(RunSpec("wormhole", PARAMS, options={"bogus": 1}))


class TestCanonicalDefaults:
    """Pin the shared TDM defaults so experiments cannot silently diverge.

    Figure 4 and the fault campaigns must measure the *same* networks;
    both build theirs with :func:`build_network` from a :class:`RunSpec`
    carrying the cell's ``k`` and injection window, and these tests pin the
    defaults they agree on.
    """

    def test_registry_defaults(self):
        assert DEFAULT_K == 4
        assert DEFAULT_INJECTION_WINDOW == 4
        spec = RunSpec("dynamic-tdm", PARAMS)
        net = build_network(spec)
        assert (net.k, net.injection_window) == (4, 4)

    def test_figure4_and_faults_build_identical_tdm_config(self, monkeypatch):
        from repro.experiments import faults, figure4
        from repro.experiments.common import FIGURE4_SCHEMES

        class Built(Exception):
            """Stops a cell once its network exists."""

        def network_of(module, run_cell, cell):
            def capture(spec):
                raise Built(build_network(spec))

            monkeypatch.setattr(module, "build_network", capture)
            with pytest.raises(Built) as built:
                run_cell(cell)
            return built.value.args[0]

        assert FIGURE4_SCHEMES == ("wormhole", "circuit", "dynamic-tdm", "preload")
        for name in ("dynamic-tdm", "preload"):
            fig4_cell = figure4.Figure4Cell(
                pattern="scatter",
                scheme=name,
                size_bytes=64,
                params=PARAMS,
                k=4,
                mesh_rounds=4,
                nn_rounds=16,
                seed=1,
            )
            campaign_cell = faults.FaultCell(
                scheme=name,
                rate_per_us=0.0,
                horizon_ps=0,
                params=PARAMS,
                size_bytes=512,
                messages_per_node=8,
                n_static=2,
                k=4,
                injection_window=4,
                seed=1,
                max_wall_s=None,
            )
            a = network_of(figure4, figure4.run_figure4_cell, fig4_cell)
            b = network_of(faults, faults.run_fault_cell, campaign_cell)
            assert type(a) is type(b) is TdmNetwork
            assert (a.k, a.mode, a.injection_window, a.k_preload) == (
                b.k,
                b.mode,
                b.injection_window,
                b.k_preload,
            )
            # the canonical configuration itself, pinned
            assert (a.k, a.injection_window) == (4, 4)


class TestRunScheme:
    def test_run_scheme_end_to_end(self):
        pattern = ScatterPattern(PARAMS.n_ports, size_bytes=64)
        phases = pattern.phases(RngStreams(0))
        result = run_scheme(
            RunSpec("wormhole", PARAMS), phases, pattern_name=pattern.name
        )
        assert result.scheme == "wormhole"
        assert len(result.records) == sum(len(p.messages) for p in phases)
