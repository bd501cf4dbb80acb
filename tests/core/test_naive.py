"""Tests for the naive recurrence-(2) DP, the BF search and brute force."""

import numpy as np
import pytest

from repro.core.configs import ConfigSpace
from repro.core.costmodel import CostModel
from repro.core.exceptions import SearchResourceError
from repro.core.machine import GTX1080TI
from repro.core.naive import bf_dependent_sets, brute_force_strategy, naive_bf_strategy
from repro.runtime import RunBudget, RunContext, execute_search
from tests.conftest import build_dag


def setup(graph, p=4):
    space = ConfigSpace.build(graph, p, mode="all")
    tables = CostModel(GTX1080TI).build_tables(graph, space)
    return space, tables


def bf_search(graph, p=4, **budget):
    """Table I's BF search under a run budget (the hardened runtime)."""
    space = ConfigSpace.build(graph, p, mode="all")
    return execute_search(graph, space, GTX1080TI, method="bf",
                          ctx=RunContext(budget=RunBudget(**budget))).result


class TestBFDependentSets:
    def test_path(self):
        adj = [[1], [0, 2], [1]]
        assert bf_dependent_sets(adj) == [(1,), (2,), ()]

    def test_star(self):
        # vertex 0 adjacent to 1..3
        adj = [[1, 2, 3], [0], [0], [0]]
        dep = bf_dependent_sets(adj)
        assert dep[0] == (1, 2, 3)
        assert dep[-1] == ()

    def test_frontier_shrinks_at_end(self):
        adj = [[1], [0, 2], [1, 3], [2]]
        dep = bf_dependent_sets(adj)
        assert all(all(j > i for j in d) for i, d in enumerate(dep))


class TestNaiveDP:
    def test_custom_order(self, diamond):
        space, tables = setup(diamond)
        ref = brute_force_strategy(diamond, space, tables).cost
        for order in [("n0", "n1", "n2", "n3"), ("n3", "n2", "n1", "n0")]:
            res = naive_bf_strategy(diamond, space, tables, order=order)
            assert res.cost == pytest.approx(ref)

    def test_oom_budget(self, diamond):
        assert bf_search(diamond).cost > 0
        with pytest.raises(SearchResourceError):
            bf_search(diamond, memory_budget=100)

    def test_method_label(self, chain3):
        space, tables = setup(chain3)
        ref = naive_bf_strategy(chain3, space, tables)
        bf = bf_search(chain3)
        assert ref.method == bf.method == "naive-bf"
        assert bf.cost == ref.cost
        assert bf.strategy.assignment == ref.strategy.assignment

    def test_blows_up_on_branchy_graph_with_small_budget(self):
        """The Table I OOM mechanism: BF ordering's dependent sets on a
        branchy graph exceed a budget the efficient ordering fits in."""
        from repro.core.dp import find_best_strategy
        g = build_dag(10, [(0, 3), (0, 5), (0, 7), (0, 9), (2, 9), (4, 9)])
        space, tables = setup(g, p=4)
        budget = 1 << 16
        ours = find_best_strategy(g, space, tables, memory_budget=budget)
        with pytest.raises(SearchResourceError):
            bf_search(g, memory_budget=budget)
        assert ours.cost > 0
        # Unbudgeted, the reference recurrence agrees with the optimum.
        ref = naive_bf_strategy(g, space, tables)
        assert ref.cost == pytest.approx(ours.cost, rel=1e-12)


class TestBruteForce:
    def test_cell_limit(self, diamond):
        space, tables = setup(diamond)
        with pytest.raises(SearchResourceError):
            brute_force_strategy(diamond, space, tables, max_cells=10)

    def test_strategy_achieves_cost(self, diamond):
        space, tables = setup(diamond)
        res = brute_force_strategy(diamond, space, tables)
        assert res.strategy.cost(tables) == pytest.approx(res.cost)

    def test_exhaustive_on_pair(self):
        g = build_dag(2, [], param_mask=0b11)
        space, tables = setup(g)
        res = brute_force_strategy(g, space, tables)
        # Hand enumeration.
        best = min(
            tables.strategy_cost({"n0": i, "n1": j})
            for i in range(space.size("n0"))
            for j in range(space.size("n1")))
        assert res.cost == pytest.approx(best)
