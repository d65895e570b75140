"""Unit tests for the compiled-communication frontend."""

from __future__ import annotations

import pytest

from repro.compiled.frontend import (
    Gather,
    Loop,
    Scatter,
    Seq,
    Shift,
    Stencil,
    Unknown,
    compile_program,
)
from repro.errors import ConfigurationError
from repro.networks.tdm import TdmNetwork
from repro.params import PAPER_PARAMS
from repro.types import Connection

N = 16


class TestStatements:
    def test_shift_connections(self):
        conns = Shift(1).connections(4)
        assert conns == {(0, 1), (1, 2), (2, 3), (3, 0)}

    def test_shift_zero_rejected(self):
        with pytest.raises(ConfigurationError):
            Shift(4).connections(4)

    def test_stencil_has_four_per_node(self):
        conns = Stencil().connections(N)
        assert len(conns) == 4 * N

    def test_gather_scatter_duals(self):
        g = Gather(root=3).connections(N)
        s = Scatter(root=3).connections(N)
        assert {Connection(c.dst, c.src) for c in g} == s

    def test_unknown_not_static(self):
        u = Unknown(pairs=((0, 1), (2, 3)))
        assert not u.static
        assert u.connections(4) == {Connection(0, 1), Connection(2, 3)}

    def test_messages_match_connections(self):
        for stmt in (Shift(2), Stencil(), Gather(), Scatter()):
            conns = stmt.connections(N)
            msg_conns = {m.connection for m in stmt.messages(N, 64)}
            assert msg_conns == conns


class TestPhaseFormation:
    def test_loop_becomes_phase(self):
        prog = Loop(trips=10, body=(Stencil(),))
        sched = compile_program(prog, N, k_preload=4)
        assert len(sched.phases) == 1
        assert sched.phases[0].trips == 10

    def test_consecutive_statements_coalesce(self):
        prog = Seq(body=(Shift(1), Shift(2)))
        sched = compile_program(prog, N, k_preload=4)
        assert len(sched.phases) == 1
        assert sched.phases[0].working_set_size == 2 * N

    def test_loop_splits_phases(self):
        prog = Seq(body=(Shift(1), Loop(trips=4, body=(Stencil(),)), Shift(2)))
        sched = compile_program(prog, N, k_preload=4)
        assert len(sched.phases) == 3

    def test_nested_loops_fold(self):
        prog = Loop(trips=2, body=(Loop(trips=3, body=(Shift(1),)),))
        sched = compile_program(prog, N, k_preload=4)
        assert len(sched.phases) == 1
        # working set is still one shift permutation
        assert sched.phases[0].working_set_size == N

    def test_bad_trips(self):
        with pytest.raises(ConfigurationError):
            Loop(trips=0, body=(Shift(1),))


class TestAnalysis:
    def test_degrees(self):
        sched = compile_program(Seq(body=(Stencil(),)), N, k_preload=4)
        assert sched.phases[0].optimal_degree == 4
        sched = compile_program(Seq(body=(Gather(),)), N, k_preload=4)
        assert sched.phases[0].optimal_degree == N - 1

    def test_unknown_goes_dynamic(self):
        prog = Seq(body=(Shift(1), Unknown(pairs=((0, 2),))))
        sched = compile_program(prog, N, k_preload=4)
        phase = sched.phases[0]
        assert Connection(0, 1) in phase.static_conns
        assert Connection(0, 2) in phase.dynamic_conns
        assert Connection(0, 2) not in phase.static_conns

    def test_preload_program_sized_to_budget(self):
        sched = compile_program(Seq(body=(Stencil(),)), N, k_preload=2)
        prog = sched.phases[0].program
        assert prog is not None
        assert prog.n_batches == 2  # degree 4 / budget 2

    def test_max_batches_heuristic(self):
        sched = compile_program(
            Seq(body=(Gather(),)), N, k_preload=2, max_batches=2
        )
        phase = sched.phases[0]
        assert phase.program is None  # too big to preload
        assert phase.static_conns == set()
        assert len(phase.dynamic_conns) == N - 1

    def test_flush_on_working_set_change(self):
        prog = Seq(
            body=(
                Loop(trips=2, body=(Shift(1),)),
                Loop(trips=2, body=(Shift(2),)),
            )
        )
        sched = compile_program(prog, N, k_preload=2)
        assert sched.flush_points == [1]

    def test_no_flush_when_covered(self):
        prog = Seq(
            body=(
                Loop(trips=2, body=(Shift(1),)),
                Loop(trips=2, body=(Shift(1),)),  # same working set
            )
        )
        sched = compile_program(prog, N, k_preload=2)
        assert sched.flush_points == []

    def test_bad_k_preload(self):
        with pytest.raises(ConfigurationError):
            compile_program(Seq(body=(Shift(1),)), N, k_preload=0)


class TestEndToEnd:
    def test_schedule_runs_on_tdm_network(self):
        params = PAPER_PARAMS.with_overrides(n_ports=N)
        prog = Seq(
            body=(
                Loop(trips=2, body=(Stencil(),)),
                Loop(trips=2, body=(Shift(1), Shift(2))),
            )
        )
        sched = compile_program(prog, N, k_preload=2)
        phases = sched.to_traffic(size_bytes=64)
        net = TdmNetwork(params, k=4, mode="hybrid", k_preload=2)
        result = net.run(phases, pattern_name="compiled")
        expected = 2 * 4 * N + 2 * 2 * N
        assert len(result.records) == expected

    def test_traffic_seq_unique(self):
        sched = compile_program(
            Seq(body=(Shift(1), Loop(trips=2, body=(Shift(2),)))), N, k_preload=1
        )
        phases = sched.to_traffic(32)
        seqs = [m.seq for p in phases for m in p.messages]
        assert len(seqs) == len(set(seqs))

    def test_trips_multiply_messages(self):
        sched = compile_program(Loop(trips=5, body=(Shift(1),)), N, k_preload=1)
        phases = sched.to_traffic(32)
        assert len(phases[0].messages) == 5 * N
