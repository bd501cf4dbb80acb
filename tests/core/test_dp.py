"""Tests for FINDBESTSTRATEGY — including the Theorem 1 property.

The tensorized DP must return exactly the brute-force optimum (Theorem 1)
for any vertex ordering, with the extracted strategy achieving the
reported cost.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.configs import ConfigSpace
from repro.core.costmodel import CostModel
from repro.core.dp import dp_table_profile, find_best_strategy
from repro.core.exceptions import SearchResourceError
from repro.core.machine import GTX1080TI, UNIT_BALANCE
from repro.core.naive import brute_force_strategy, naive_bf_strategy
from repro.core.sequencer import (SequencedGraph, breadth_first_seq,
                                  generate_seq)
from repro.runtime import RunContext
from tests.conftest import build_dag, small_dags
from tests.core.test_sequencer import connected_subsets_reference


def setup(graph, p=4, machine=GTX1080TI, mode="all"):
    space = ConfigSpace.build(graph, p, mode=mode)
    tables = CostModel(machine).build_tables(graph, space)
    return space, tables


class TestCorrectness:
    def test_chain_matches_brute_force(self, chain3):
        space, tables = setup(chain3)
        dp = find_best_strategy(chain3, space, tables)
        bf = brute_force_strategy(chain3, space, tables)
        assert dp.cost == pytest.approx(bf.cost)

    def test_diamond_matches_brute_force(self, diamond):
        space, tables = setup(diamond)
        dp = find_best_strategy(diamond, space, tables)
        bf = brute_force_strategy(diamond, space, tables)
        assert dp.cost == pytest.approx(bf.cost)

    def test_extracted_strategy_achieves_cost(self, diamond):
        space, tables = setup(diamond)
        dp = find_best_strategy(diamond, space, tables)
        dp.strategy.validate(diamond, space.p)
        assert dp.strategy.cost(tables) == pytest.approx(dp.cost)

    @settings(max_examples=40, deadline=None)
    @given(small_dags(max_nodes=5), st.sampled_from([2, 3, 4]))
    def test_theorem1_random_graphs(self, graph, p):
        """DP == naive BF DP == brute force on random graphs, and the DP
        over the breadth-first ordering (Table I's BF search) matches the
        recurrence-(2) reference: same optimum, cells and largest
        dependent set."""
        space, tables = setup(graph, p=p)
        dp = find_best_strategy(graph, space, tables)
        nv = naive_bf_strategy(graph, space, tables)
        bf = brute_force_strategy(graph, space, tables)
        bfs = find_best_strategy(graph, space, tables,
                                 order=breadth_first_seq(graph),
                                 method_name="naive-bf")
        assert dp.cost == pytest.approx(bf.cost, rel=1e-12)
        assert nv.cost == pytest.approx(bf.cost, rel=1e-12)
        assert bfs.cost == pytest.approx(bf.cost, rel=1e-12)
        assert bfs.cost == pytest.approx(nv.cost, rel=1e-12)
        assert dp.strategy.cost(tables) == pytest.approx(dp.cost, rel=1e-12)
        assert nv.strategy.cost(tables) == pytest.approx(nv.cost, rel=1e-12)
        assert bfs.strategy.cost(tables) == pytest.approx(bfs.cost, rel=1e-12)
        assert bfs.stats["cells"] == nv.stats["cells"]
        assert bfs.stats["max_dependent"] == nv.stats["max_dependent"]

    @settings(max_examples=25, deadline=None)
    @given(small_dags(max_nodes=5), st.randoms(use_true_random=False))
    def test_any_ordering_same_optimum(self, graph, rnd):
        """Theorem 1 holds for arbitrary orderings, not just GENERATESEQ."""
        space, tables = setup(graph)
        ref = find_best_strategy(graph, space, tables).cost
        order = list(graph.node_names)
        rnd.shuffle(order)
        alt = find_best_strategy(graph, space, tables, order=tuple(order))
        assert alt.cost == pytest.approx(ref, rel=1e-12)

    def test_chunked_evaluation_matches(self, diamond, monkeypatch):
        """Blocks of one row (a 7-cell cap) give the one-block answer."""
        space, tables = setup(diamond)
        ref = find_best_strategy(diamond, space, tables).cost
        monkeypatch.setattr("repro.core.dp._POLL_CELLS", 7)
        tiny = find_best_strategy(diamond, space, tables)
        assert tiny.cost == pytest.approx(ref)

    def test_forest_supported(self):
        from repro.core.graph import CompGraph
        from tests.conftest import make_test_op
        g = CompGraph([make_test_op("a"), make_test_op("b")])
        space, tables = setup(g)
        dp = find_best_strategy(g, space, tables)
        bf = brute_force_strategy(g, space, tables)
        assert dp.cost == pytest.approx(bf.cost)

    def test_empty_graph(self):
        from repro.core.graph import CompGraph
        g = CompGraph()
        space, tables = setup(g)
        res = find_best_strategy(g, space, tables)
        assert res.cost == 0.0 and len(res.strategy) == 0


class TestResourceBudget:
    def test_budget_exceeded_raises(self, diamond):
        space, tables = setup(diamond)
        with pytest.raises(SearchResourceError) as exc:
            find_best_strategy(diamond, space, tables, memory_budget=64)
        assert exc.value.budget_bytes == 64
        assert exc.value.requested_bytes > 64

    def test_generous_budget_ok(self, diamond):
        space, tables = setup(diamond)
        find_best_strategy(diamond, space, tables, memory_budget=1 << 28)


class TestMidTablePoll:
    def test_abort_mid_table_leaves_no_partial_state(self, diamond,
                                                     monkeypatch):
        """A checkpoint raising on the second poll of a step (the first
        block poll of a multi-block table) aborts the search there; a
        rerun without it returns the uninterrupted answer."""
        space, tables = setup(diamond)
        chunk = 7
        monkeypatch.setattr("repro.core.dp._POLL_CELLS", chunk)
        # Blocks of max(1, chunk // K) whole candidate rows: every vertex
        # with a non-empty dependent set spans several.
        seq = SequencedGraph.build(diamond, generate_seq(diamond))
        multi = [i for i in range(len(seq))
                 if math.prod(space.size(seq.name(d)) for d in seq.dep[i])
                 > max(1, chunk // space.size(seq.name(i)))]
        assert multi
        ref = find_best_strategy(diamond, space, tables)
        polls = []

        class Stop(Exception):
            pass

        def ckpt(*, phase, step, total=None):
            polls.append((phase, step, total))
            if [s for _, s, _ in polls].count(step) == 2:
                raise Stop

        with pytest.raises(Stop):
            find_best_strategy(diamond, space, tables,
                               ctx=RunContext(checkpoint=ckpt))
        step = polls[-1][1]
        assert step == multi[0]
        assert polls[-2:] == [("dp", step, len(diamond)), ("dp", step, None)]
        again = find_best_strategy(diamond, space, tables)
        assert again.cost == ref.cost
        assert again.strategy.assignment == ref.strategy.assignment


class TestStats:
    def test_stats_populated(self, diamond):
        space, tables = setup(diamond)
        res = find_best_strategy(diamond, space, tables)
        assert res.stats["cells"] > 0
        assert res.stats["vertices"] == 4
        assert res.stats["k_max"] == space.max_size
        assert res.method == "pase-dp"

    def test_table_profile_matches_m(self, diamond):
        space, _ = setup(diamond)
        seq = SequencedGraph.build(diamond, generate_seq(diamond))
        profile = dp_table_profile(seq, space)
        assert len(profile) == 4
        k = space.max_size
        assert max(profile) <= k ** (seq.max_dependent_size + 1)


class TestPeakBytes:
    """Regression tests for the peak-memory accounting.

    A vertex's charge already contains its new table + argmin bytes
    (``table_cells * 12``); an earlier version added it on top of the
    post-materialization ``live_bytes`` and so double-charged every
    table.  A table that fits one block of whole candidate rows is
    charged its cost array and the argmin's row indices besides.
    """

    def test_single_node_exact(self):
        from repro.core.graph import CompGraph
        from tests.conftest import make_test_op
        g = CompGraph([make_test_op("a")])
        space, tables = setup(g)
        res = find_best_strategy(g, space, tables)
        k = space.size("a")
        # One vertex, empty D(i): 12 bytes of table/argmin plus one block
        # of K cells with its argmin and row offset.  The
        # double-counting bug reported 12 bytes more.
        assert res.stats["peak_bytes"] == 12 + 8 * (k + 2)

    @pytest.mark.parametrize("fixture", ["chain3", "diamond"])
    def test_matches_reference_accounting(self, fixture, request):
        graph = request.getfixturevalue(fixture)
        space, tables = setup(graph)
        res = find_best_strategy(graph, space, tables)

        # Independent mirror of the DP's accounting: live tables before
        # vertex i, plus i's transient (table + argmin, and the one
        # block: cost array, argmin and row offsets), the tables of
        # S(i)'s components (each its last vertex's, from the
        # definition) freed after consumption, argmins kept live.
        from repro.core import kernels
        seq = SequencedGraph.build(graph, generate_seq(graph))
        ksize = [space.size(seq.name(i)) for i in range(len(seq))]
        table_nbytes = [0] * len(seq)
        live = 0
        peak = 0
        for i in range(len(seq)):
            cells = 1
            for d in seq.dep[i]:
                cells *= ksize[d]
            assert cells * ksize[i] <= kernels._BLOCK_CELLS  # one block
            needed = cells * 12 + cells * (ksize[i] + 2) * 8
            peak = max(peak, live + needed)
            for comp in connected_subsets_reference(graph, seq.order, i):
                live -= table_nbytes[max(seq.pos[n] for n in comp)]
            table_nbytes[i] = cells * 8
            live += cells * 12
        assert res.stats["peak_bytes"] == peak

    def test_diamond_pinned(self, diamond):
        """Literal counters of the scalar DP on the diamond; both
        objectives share one byte ledger, so a change to either
        objective's accounting that leaks into the scalar one shows
        here."""
        space, tables = setup(diamond)
        res = find_best_strategy(diamond, space, tables)
        assert res.stats["cells"] == 1096.0
        assert res.stats["peak_bytes"] == 6656.0


class TestAgainstBaselines:
    """The DP optimum can never lose to any heuristic strategy."""

    def test_beats_data_parallel_and_serial(self):
        from repro.baselines import data_parallel_strategy
        from repro.core.strategy import Strategy
        g = build_dag(4, [(0, 2), (1, 3)], param_mask=0b1111,
                      reduction_mask=0b0110)
        space, tables = setup(g, p=4)
        best = find_best_strategy(g, space, tables)
        assert best.cost <= data_parallel_strategy(g, 4).cost(tables) + 1e-9
        assert best.cost <= Strategy.serial(g).cost(tables) + 1e-9

    @settings(max_examples=20, deadline=None)
    @given(small_dags(max_nodes=5), st.randoms(use_true_random=False))
    def test_beats_random_strategies(self, graph, rnd):
        space, tables = setup(graph)
        best = find_best_strategy(graph, space, tables)
        for _ in range(5):
            idx = {n: rnd.randrange(space.size(n)) for n in graph.node_names}
            assert best.cost <= tables.strategy_cost(idx) + 1e-9


class TestReduceAutoBypass:
    """reduce=True is "auto": the reduction is skipped when the plain DP
    is predicted to be cheaper than reading the tables even once."""

    def test_tiny_problem_bypasses(self, diamond):
        space, tables = setup(diamond)
        plain = find_best_strategy(diamond, space, tables)
        res = find_best_strategy(diamond, space, tables, reduce=True)
        assert res.stats["reduction_bypassed"] == 1.0
        assert "reduction_seconds" not in res.stats
        assert not res.method.endswith("+reduce")
        assert res.cost == plain.cost
        assert res.strategy.assignment == plain.strategy.assignment

    def test_always_never_bypasses(self, diamond):
        space, tables = setup(diamond)
        res = find_best_strategy(diamond, space, tables, reduce="always")
        assert res.stats["reduction_bypassed"] == 0.0
        assert "reduction_seconds" in res.stats
        assert res.method.endswith("+reduce")

    def test_unknown_reduce_mode_rejected(self, diamond):
        space, tables = setup(diamond)
        with pytest.raises(ValueError, match="reduce"):
            find_best_strategy(diamond, space, tables, reduce="sometimes")

    def test_off_spellings_skip_reduction_entirely(self, diamond):
        space, tables = setup(diamond)
        for off in (False, "off", "never"):
            res = find_best_strategy(diamond, space, tables, reduce=off)
            assert "reduction_bypassed" not in res.stats
            assert not res.method.endswith("+reduce")
