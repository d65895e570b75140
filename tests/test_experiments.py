"""Unit tests for the experiment drivers (small system sizes)."""

from __future__ import annotations

import pytest

from repro.experiments.ablations import ablation_fabrics
from repro.experiments.common import FIGURE4_SCHEMES, measure
from repro.experiments.faults import run_faults
from repro.experiments.figure4 import figure4_patterns, run_figure4
from repro.experiments.figure5 import run_figure5
from repro.experiments.table3 import format_table3, run_table3
from repro.networks.registry import RunSpec, build_network
from repro.params import PAPER_PARAMS
from repro.traffic.scatter import ScatterPattern


@pytest.fixture
def params():
    return PAPER_PARAMS.with_overrides(n_ports=16)


class TestTable3Driver:
    def test_rows(self):
        rows = run_table3()
        assert len(rows) == 6
        assert rows[-1]["n"] == 128

    def test_formatting(self):
        text = format_table3()
        assert "Table 3" in text
        assert "385" in text  # the paper's 128-port value appears

    def test_custom_sizes(self):
        rows = run_table3(sizes=(4, 256))
        assert rows[1]["n"] == 256
        # no paper value for 256: error is NaN
        assert rows[1]["paper_ns"] != rows[1]["paper_ns"]


class TestMeasure:
    def test_point_fields(self, params):
        point = measure(ScatterPattern(16, 64), build_network(RunSpec("wormhole", params)))
        assert point.scheme == "wormhole"
        assert point.pattern == "scatter"
        assert 0 < point.efficiency < 1
        assert point.lower_bound_ps <= point.makespan_ps

    def test_same_seed_same_result(self, params):
        spec = RunSpec("dynamic-tdm", params)
        a = measure(ScatterPattern(16, 64), build_network(spec), seed=5)
        b = measure(ScatterPattern(16, 64), build_network(spec), seed=5)
        assert a.makespan_ps == b.makespan_ps

    def test_all_schemes_run(self, params):
        for name in FIGURE4_SCHEMES:
            point = measure(ScatterPattern(16, 64), build_network(RunSpec(name, params)))
            assert point.efficiency > 0, name


class TestFigure4Driver:
    def test_subset_run(self, params):
        result = run_figure4(
            params=params,
            sizes=(32, 64),
            patterns=("scatter",),
            schemes=("wormhole", "dynamic-tdm"),
            mesh_rounds=1,
            nn_rounds=2,
        )
        assert set(result.series) == {"scatter"}
        assert set(result.series["scatter"]) == {"wormhole", "dynamic-tdm"}
        assert len(result.series["scatter"]["wormhole"]) == 2
        assert result.efficiency("scatter", "wormhole", 64) > 0

    def test_patterns_available(self, params):
        factories = figure4_patterns(params)
        assert set(factories) == {"scatter", "random-mesh", "ordered-mesh", "two-phase"}
        for factory in factories.values():
            pattern = factory(64)
            assert pattern.size_bytes == 64

    def test_format_and_csv(self, params):
        result = run_figure4(
            params=params,
            sizes=(64,),
            patterns=("scatter",),
            schemes=("wormhole",),
        )
        assert "Figure 4" in result.format()
        assert "bytes,wormhole" in result.csv("scatter")


class TestFigure5Driver:
    def test_small_sweep(self, params):
        result = run_figure5(
            params=params,
            determinism=(0.5, 1.0),
            k_preloads=(0, 1),
            messages_per_node=8,
        )
        assert set(result.series) == {"0-preload/3-dynamic", "1-preload/2-dynamic"}
        assert len(result.series["0-preload/3-dynamic"]) == 2
        assert result.efficiency(1, 1.0) > 0

    def test_format(self, params):
        result = run_figure5(
            params=params, determinism=(0.9,), k_preloads=(0,), messages_per_node=4
        )
        assert "Figure 5" in result.format()
        assert "determinism" in result.csv()


class TestFaultsDriver:
    def test_small_sweep(self, params):
        result = run_faults(
            params=params,
            rates=(0.0, 4.0),
            schemes=("wormhole", "dynamic-tdm"),
            messages_per_node=2,
        )
        assert set(result.delivered) == {"wormhole", "dynamic-tdm"}
        assert len(result.points) == 4
        for scheme in result.delivered:
            # rate 0 is lossless and at full healthy bandwidth
            assert result.point(scheme, 0.0).report.delivered_fraction == 1.0
            assert result.bandwidth[scheme][0] >= result.bandwidth[scheme][1]
            for point in (result.point(scheme, r) for r in (0.0, 4.0)):
                assert point.report.duplicated == 0

    def test_sweep_deterministic(self, params):
        kwargs = dict(
            params=params, rates=(8.0,), schemes=("circuit",), messages_per_node=2
        )
        a, b = run_faults(**kwargs), run_faults(**kwargs)
        assert a.delivered == b.delivered
        assert a.bandwidth == b.bandwidth
        assert [p.makespan_ps for p in a.points] == [p.makespan_ps for p in b.points]

    def test_format_and_csv(self, params):
        result = run_faults(
            params=params, rates=(0.0,), schemes=("wormhole",), messages_per_node=2
        )
        assert "delivered message fraction" in result.format()
        assert "faults_per_us,wormhole:delivered" in result.csv()
        with pytest.raises(KeyError):
            result.point("wormhole", 99.0)


class TestFabricAblation:
    def test_a10_efficiencies_are_pinned(self, params):
        """A10 at 16 ports, exactly: any change to the Omega or fat-tree
        constraint predicate that alters a scheduling decision moves a
        value here (two runs of one tree cannot show that)."""
        assert ablation_fabrics(params) == {
            "crossbar": 0.3076923076923077,
            "omega": 0.25806451612903225,
            "fat-tree-4to1": 0.1951219512195122,
        }
