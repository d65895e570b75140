"""Unit tests for result serialisation."""

from __future__ import annotations

import pytest

from repro.metrics.serialization import (
    load_result,
    result_from_dict,
    result_to_dict,
    save_result,
)
from repro.networks.tdm import TdmNetwork
from repro.params import PAPER_PARAMS
from repro.sim.rng import RngStreams
from repro.traffic.synthetic import UniformRandomPattern


@pytest.fixture
def params():
    return PAPER_PARAMS.with_overrides(n_ports=8)


@pytest.fixture
def sample_result(params):
    pattern = UniformRandomPattern(8, 64, messages_per_node=4)
    return TdmNetwork(params, k=2, mode="dynamic").run(
        pattern.phases(RngStreams(3)), pattern_name=pattern.name
    )


class TestSerialization:
    def test_roundtrip_exact(self, sample_result, tmp_path):
        path = tmp_path / "run.json"
        save_result(sample_result, path)
        loaded = load_result(path)
        assert loaded.scheme == sample_result.scheme
        assert loaded.makespan_ps == sample_result.makespan_ps
        assert loaded.params == sample_result.params
        assert loaded.counters == sample_result.counters
        assert [dataclass_tuple(r) for r in loaded.records] == [
            dataclass_tuple(r) for r in sample_result.records
        ]
        assert len(loaded.phases) == len(sample_result.phases)

    def test_derived_quantities_survive(self, sample_result, tmp_path):
        path = tmp_path / "run.json"
        save_result(sample_result, path)
        loaded = load_result(path)
        assert (
            loaded.latency_stats().mean
            == sample_result.latency_stats().mean
        )
        assert loaded.delivered_fraction == sample_result.delivered_fraction

    def test_version_checked(self, sample_result):
        data = result_to_dict(sample_result)
        data["format_version"] = 99
        with pytest.raises(ValueError):
            result_from_dict(data)


def dataclass_tuple(record):
    return (
        record.src,
        record.dst,
        record.size,
        record.inject_ps,
        record.start_ps,
        record.done_ps,
        record.seq,
    )
