"""Tests for the scheduler bake-off harness (``repro compare``)."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.experiments.common import DEFAULT_SEED, FIGURE4_SCHEMES, guarded_efficiency
from repro.experiments.compare import COMPARE_SCHEMES, coverage_rows, run_compare
from repro.experiments.figure4 import Figure4Cell, run_figure4, run_figure4_cell
from repro.metrics.efficiency import efficiency_from_bound
from repro.params import PAPER_PARAMS

PARAMS = PAPER_PARAMS.with_overrides(n_ports=16)


class TestGuardedEfficiency:
    def test_matches_strict_validator_on_real_cells(self):
        assert guarded_efficiency(50, 100) == efficiency_from_bound(50, 100)

    def test_empty_cell_yields_zero_not_crash(self):
        """Regression: an empty traffic realisation (bound 0, makespan 0)
        must produce a zero report row, where the strict validator raises."""
        assert guarded_efficiency(0, 0) == 0.0
        assert guarded_efficiency(0, 100) == 0.0
        assert guarded_efficiency(100, 0) == 0.0
        with pytest.raises(ConfigurationError):
            efficiency_from_bound(0, 0)


class TestCells:
    def test_every_scheme_runs_one_cell(self):
        for scheme in COMPARE_SCHEMES:
            point = run_figure4_cell(
                Figure4Cell(
                    pattern="scatter",
                    scheme=scheme,
                    size_bytes=64,
                    params=PARAMS,
                    k=4,
                    mesh_rounds=4,
                    nn_rounds=16,
                    seed=DEFAULT_SEED,
                )
            )
            assert 0.0 < point.efficiency <= 1.0, scheme
            assert point.scheme == scheme


class TestSameGridAsFigure4:
    def test_figure4_cells_agree(self):
        """The bake-off is the Figure 4 grid plus two entrants: on one small
        grid, every cell of the four Figure 4 schemes reports the same
        makespan, bound, bytes and efficiency in both sweeps."""
        grid = dict(
            params=PARAMS,
            sizes=(8, 64),
            patterns=("scatter", "random-mesh", "ordered-mesh", "two-phase"),
            mesh_rounds=1,
            nn_rounds=2,
            cache=False,
            jobs=1,
        )
        bakeoff = run_compare(**grid)
        figure4 = run_figure4(**grid)

        def key(p):
            return p.pattern, p.scheme, p.size_bytes

        def fields(p):
            return p.makespan_ps, p.lower_bound_ps, p.total_bytes, p.efficiency

        compared = {key(p): fields(p) for p in bakeoff.points}
        assert len(figure4.points) == 4 * len(FIGURE4_SCHEMES) * 2
        for p in figure4.points:
            assert compared[key(p)] == fields(p), key(p)


class TestDriver:
    @pytest.fixture(scope="class")
    def result(self):
        return run_compare(
            params=PARAMS,
            sizes=(64,),
            patterns=("scatter", "two-phase"),
            cache=False,
            jobs=1,
        )

    def test_grid_shape(self, result):
        assert len(result.points) == 2 * len(COMPARE_SCHEMES)
        assert set(result.series) == {"scatter", "two-phase"}

    def test_ranking_sorted_and_complete(self, result):
        ranking = result.ranking()
        assert [s for s, _ in ranking] != []
        assert sorted(s for s, _ in ranking) == sorted(COMPARE_SCHEMES)
        means = [m for _, m in ranking]
        assert means == sorted(means, reverse=True)

    def test_csv_covers_grid(self, result):
        lines = result.csv().strip().split("\n")
        assert lines[0].startswith("pattern,scheme,bytes,")
        assert len(lines) == 1 + len(result.points)

    def test_coverage_rows_present(self, result):
        names = [r.demand_name for r in result.coverage]
        assert names == ["scatter", "two-phase", "skewed"]
        for row in result.coverage:
            assert 0.0 <= row.coloring_coverage <= 1.0
            assert 0.0 <= row.solstice_coverage <= 1.0
            assert row.budget == 4

    def test_solstice_wins_on_skewed_demand(self, result):
        """The acceptance bar: on the seeded skewed matrix the Solstice
        schedule covers at least as much demand as plain colouring."""
        skewed = result.coverage[-1]
        assert skewed.demand_name == "skewed"
        assert skewed.solstice_coverage >= skewed.coloring_coverage

    def test_format_and_markdown(self, result):
        text = result.format()
        assert "ranking" in text
        assert "coverage" in text
        md = result.markdown()
        assert md.startswith("# Scheduler bake-off")
        assert "| rank | scheme |" in md
        for scheme in COMPARE_SCHEMES:
            assert scheme in md

    def test_unknown_names_rejected(self):
        with pytest.raises(KeyError):
            run_compare(params=PARAMS, patterns=("nope",), cache=False)
        with pytest.raises(KeyError):
            run_compare(params=PARAMS, schemes=("nope",), cache=False)


class TestDeterminism:
    def test_jobs_invariant_and_repeatable(self):
        """The CI contract: byte-identical CSV across invocations and
        across worker counts."""
        kwargs = dict(
            params=PARAMS,
            sizes=(64,),
            patterns=("random-mesh",),
            schemes=("dynamic-tdm", "islip", "solstice-tdm"),
            cache=False,
        )
        serial = run_compare(jobs=1, **kwargs)
        again = run_compare(jobs=1, **kwargs)
        fanned = run_compare(jobs=2, **kwargs)
        assert serial.csv() == again.csv() == fanned.csv()
        assert serial.points == fanned.points


class TestCoverageRows:
    def test_pure_function_of_inputs(self):
        a = coverage_rows(PARAMS, k=4, seed=11)
        b = coverage_rows(PARAMS, k=4, seed=11)
        assert a == b

    def test_budget_monotone(self):
        """More register-file depth never covers less."""
        shallow = {r.demand_name: r.solstice_coverage for r in coverage_rows(PARAMS, k=2)}
        deep = {r.demand_name: r.solstice_coverage for r in coverage_rows(PARAMS, k=8)}
        for name, cov in shallow.items():
            assert deep[name] >= cov
