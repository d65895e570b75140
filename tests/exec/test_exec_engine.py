"""map_cells engine tests: ordering, caching, stats, knobs."""

from __future__ import annotations

import pytest
from _cellfuncs import ValueCell, square

import repro.exec.engine as engine_mod
from repro.errors import ConfigurationError
from repro.exec import (
    JOBS_ENV_VAR,
    CellEncodingError,
    ResultCache,
    map_cells,
    resolve_jobs,
)

CELLS = [ValueCell(v) for v in range(6)]


class TestResolveJobs:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV_VAR, "3")
        assert resolve_jobs(2) == 2

    def test_env_var(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV_VAR, "5")
        assert resolve_jobs() == 5

    def test_default_is_cpu_count(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV_VAR, raising=False)
        assert resolve_jobs() >= 1

    @pytest.mark.parametrize("bad", [0, -1])
    def test_rejects_non_positive(self, bad):
        with pytest.raises(ConfigurationError, match="jobs"):
            resolve_jobs(bad)


class TestOrderedReduction:
    def test_serial_order_and_payloads(self):
        outcome = map_cells(square, CELLS, jobs=1)
        assert outcome.payloads == [0, 1, 4, 9, 16, 25]
        assert list(outcome) == outcome.payloads
        assert len(outcome) == 6
        assert outcome[3] == 9

    @pytest.mark.parametrize("jobs", [2, 8])
    def test_pool_matches_serial_exactly(self, jobs):
        serial = map_cells(square, CELLS, jobs=1)
        pooled = map_cells(square, CELLS, jobs=jobs)
        assert pooled.payloads == serial.payloads

    def test_force_pool_with_one_worker(self):
        outcome = map_cells(square, CELLS, jobs=1, force_pool=True)
        assert outcome.payloads == [0, 1, 4, 9, 16, 25]
        assert outcome.stats.jobs == 1

    def test_empty_cells(self):
        outcome = map_cells(square, [], jobs=1)
        assert outcome.payloads == []
        assert outcome.stats.cells_total == 0

    def test_unencodable_cell_rejected_up_front(self):
        with pytest.raises(CellEncodingError):
            map_cells(square, [object()], jobs=1)


class TestCaching:
    def test_cold_then_warm(self, tmp_path):
        store = ResultCache(tmp_path)
        cold = map_cells(square, CELLS, jobs=1, cache=store)
        assert (cold.stats.cells_run, cold.stats.cells_cached) == (6, 0)
        warm = map_cells(square, CELLS, jobs=1, cache=store)
        assert (warm.stats.cells_run, warm.stats.cells_cached) == (0, 6)
        assert warm.payloads == cold.payloads
        assert warm.stats.cached_wall_s > 0

    def test_cache_accepts_a_path(self, tmp_path):
        map_cells(square, CELLS, jobs=1, cache=tmp_path)
        warm = map_cells(square, CELLS, jobs=1, cache=tmp_path)
        assert warm.stats.cells_cached == 6

    def test_partial_hits(self, tmp_path):
        store = ResultCache(tmp_path)
        map_cells(square, CELLS[:3], jobs=1, cache=store)
        mixed = map_cells(square, CELLS, jobs=1, cache=store)
        assert (mixed.stats.cells_run, mixed.stats.cells_cached) == (3, 3)
        assert mixed.payloads == [0, 1, 4, 9, 16, 25]

    def test_refresh_recomputes(self, tmp_path):
        store = ResultCache(tmp_path)
        map_cells(square, CELLS, jobs=1, cache=store)
        refreshed = map_cells(square, CELLS, jobs=1, cache=store, refresh=True)
        assert (refreshed.stats.cells_run, refreshed.stats.cells_cached) == (6, 0)
        warm = map_cells(square, CELLS, jobs=1, cache=store)
        assert warm.stats.cells_cached == 6

    def test_root_seed_partitions_the_cache(self, tmp_path):
        store = ResultCache(tmp_path)
        map_cells(square, CELLS, root_seed=1, jobs=1, cache=store)
        other = map_cells(square, CELLS, root_seed=2, jobs=1, cache=store)
        assert other.stats.cells_cached == 0

    def test_poisoned_fingerprint_misses(self, tmp_path, monkeypatch):
        # a source change moves every key: entries written under the old
        # fingerprint must never be served
        store = ResultCache(tmp_path)
        map_cells(square, CELLS, jobs=1, cache=store)
        monkeypatch.setattr(engine_mod, "code_fingerprint", lambda: "0" * 64)
        stale = map_cells(square, CELLS, jobs=1, cache=store)
        assert (stale.stats.cells_run, stale.stats.cells_cached) == (6, 0)
        assert stale.payloads == [0, 1, 4, 9, 16, 25]

    def test_pool_populates_the_cache_too(self, tmp_path):
        store = ResultCache(tmp_path)
        map_cells(square, CELLS, jobs=2, cache=store)
        warm = map_cells(square, CELLS, jobs=1, cache=store)
        assert warm.stats.cells_cached == 6

    def test_no_cache_by_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        map_cells(square, CELLS, jobs=1)
        assert ResultCache(tmp_path).stats().entries == 0


class TestStats:
    def test_counters_shape(self):
        stats = map_cells(square, CELLS, jobs=1, label="unit").stats
        counters = stats.as_counters()
        for key in (
            "cells_total",
            "cells_run",
            "cells_cached",
            "jobs",
            "elapsed_s",
            "serial_estimate_s",
            "speedup_vs_serial",
            "pool_utilization",
        ):
            assert key in counters
        assert stats.label == "unit"
        assert len(stats.cell_wall) == 6
        assert "unit" in stats.summary()

    def test_progress_writes_to_stderr(self, capsys):
        map_cells(square, CELLS, jobs=1, label="prog", progress=True)
        err = capsys.readouterr().err
        assert "prog" in err
        assert "6 cells" in err
