"""Tests for the cost × memory Pareto-frontier DP (`repro.core.frontier`).

The load-bearing contracts:

* exactness — the DP frontier equals the brute-force non-dominated set
  on random small graphs (the satellite hypothesis property);
* bit-identity — the frontier's min-cost point carries a cost
  bit-identical to the scalar DP optimum (exact paths use ``==``; reduce
  paths re-price through `CostTables.strategy_cost`, a different float
  association, so they get the repo's usual ``isclose(rel_tol=1e-9)``);
* the scalar pipeline is untouched — ``objective="cost"`` returns the
  identical result through the identical code path.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.configs import ConfigSpace
from repro.core.costmodel import CostModel
from repro.core.dp import find_best_strategy
from repro.core.frontier import (
    Objective,
    memory_tables,
    parse_objective,
    pareto_prune,
    strategy_peak_bytes,
)
from repro.core.machine import GTX1080TI
from repro.core.strategy import FrontierPoint, Strategy
from repro.runtime import RunContext
from tests.conftest import build_dag, small_dags


def brute_force_frontier(graph, space, tables):
    """Exhaustive (cost, peak-bytes) frontier — the exactness oracle.

    Enumerates every strategy of the space (exponential: small graphs
    only), prices each with `CostTables.strategy_cost` and the memory
    tables, and prunes to the non-dominated set.
    """
    mem_tables = memory_tables(graph, space)
    names = list(space.tables)
    sizes = [space.size(nm) for nm in names]
    combos = list(itertools.product(*[range(s) for s in sizes]))
    costs = np.empty(len(combos), dtype=np.float64)
    mems = np.empty(len(combos), dtype=np.float64)
    for t, combo in enumerate(combos):
        idx = dict(zip(names, combo))
        costs[t] = tables.strategy_cost(idx)
        mems[t] = sum(float(mem_tables[nm][k]) for nm, k in idx.items())
    kept = pareto_prune(np.zeros(len(combos), dtype=np.int64), costs, mems)
    return tuple(
        FrontierPoint(cost=float(costs[j]), peak_bytes=float(mems[j]),
                      strategy=Strategy.from_indices(
                          space, dict(zip(names, combos[j]))))
        for j in kept)


def setup(graph, p=4, machine=GTX1080TI, mode="all"):
    space = ConfigSpace.build(graph, p, mode=mode)
    tables = CostModel(machine).build_tables(graph, space)
    return space, tables


# ---------------------------------------------------------------------------
# Objective parsing
# ---------------------------------------------------------------------------

class TestParseObjective:
    def test_cost(self):
        obj = parse_objective("cost")
        assert obj == Objective("cost")
        assert not obj.is_frontier
        assert obj.canonical == "cost"

    def test_frontier(self):
        obj = parse_objective("frontier")
        assert obj.is_frontier and obj.eps == 0.0
        assert obj.canonical == "frontier"

    def test_frontier_eps(self):
        obj = parse_objective("frontier:eps=0.25")
        assert obj.is_frontier and obj.eps == 0.25
        assert obj.canonical == "frontier:eps=0.25"

    def test_canonical_round_trips(self):
        for text in ("cost", "frontier", "frontier:eps=0.01"):
            assert parse_objective(text).canonical == text
        # Non-canonical spellings normalize.
        assert parse_objective(" frontier ").canonical == "frontier"
        assert parse_objective("frontier:eps=0.500").canonical == \
            "frontier:eps=0.5"

    def test_objective_instance_passes_through(self):
        obj = Objective("frontier", 0.5)
        assert parse_objective(obj) is obj

    @pytest.mark.parametrize("bad", [
        "speed", "frontier:delta=1", "frontier:eps=lots",
        "frontier:eps=-0.5", "frontier:eps=inf", "Frontier", ""])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_objective(bad)

    def test_rejects_non_string(self):
        with pytest.raises(ValueError, match="string"):
            parse_objective(3.0)


# ---------------------------------------------------------------------------
# Grouped Pareto prune vs an O(n^2) oracle
# ---------------------------------------------------------------------------

def oracle_prune(gid, cost, mem):
    """Quadratic reference: j survives unless some i dominates it (or is
    an exact duplicate with a smaller original index)."""
    n = len(cost)
    keep = []
    for j in range(n):
        dominated = False
        for i in range(n):
            if i == j or gid[i] != gid[j]:
                continue
            if cost[i] <= cost[j] and mem[i] <= mem[j]:
                if cost[i] < cost[j] or mem[i] < mem[j] or i < j:
                    dominated = True
                    break
        if not dominated:
            keep.append(j)
    return keep


@st.composite
def prune_inputs(draw):
    """Grouped point sets with deliberate exact ties on both axes."""
    n_groups = draw(st.integers(min_value=1, max_value=4))
    vals = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 8.0])
    gid, cost, mem = [], [], []
    for g in range(n_groups):
        size = draw(st.integers(min_value=0, max_value=8))
        for _ in range(size):
            gid.append(g)
            cost.append(draw(vals))
            mem.append(draw(vals))
    return (np.array(gid, dtype=np.int64), np.array(cost), np.array(mem))


class TestParetoPrune:
    @settings(max_examples=200, deadline=None)
    @given(prune_inputs())
    def test_matches_oracle(self, inputs):
        gid, cost, mem = inputs
        kept = pareto_prune(gid, cost, mem)
        assert sorted(kept.tolist()) == oracle_prune(gid, cost, mem)

    @settings(max_examples=100, deadline=None)
    @given(prune_inputs())
    def test_output_order_contract(self, inputs):
        """Survivors come back (group asc, cost asc); within a group the
        memory is strictly decreasing and the first point is min-cost."""
        gid, cost, mem = inputs
        kept = pareto_prune(gid, cost, mem)
        kg, kc, km = gid[kept], cost[kept], mem[kept]
        for t in range(1, len(kept)):
            if kg[t] == kg[t - 1]:
                assert kc[t] >= kc[t - 1]
                assert km[t] < km[t - 1]
            else:
                assert kg[t] > kg[t - 1]
        for g in np.unique(gid):
            mask = gid == g
            if mask.any():
                first = kc[kg == g][0]
                assert first == cost[mask].min()

    def test_requires_sorted_groups(self):
        with pytest.raises(ValueError, match="nondecreasing"):
            pareto_prune(np.array([1, 0]), np.array([1.0, 2.0]),
                         np.array([1.0, 2.0]))

    def test_empty(self):
        kept = pareto_prune(np.empty(0, dtype=np.int64), np.empty(0),
                            np.empty(0))
        assert kept.shape == (0,) and kept.dtype == np.int64

    def test_exact_duplicate_keeps_earliest(self):
        gid = np.zeros(3, dtype=np.int64)
        kept = pareto_prune(gid, np.array([1.0, 1.0, 1.0]),
                            np.array([2.0, 2.0, 2.0]))
        assert kept.tolist() == [0]

    @settings(max_examples=100, deadline=None)
    @given(prune_inputs(), st.sampled_from([0.01, 0.1, 0.5, 2.0]))
    def test_eps_coarsening(self, inputs, eps):
        """eps survivors are a subset of the exact frontier, at most one
        per geometric memory bucket, and every group min-cost is exact."""
        gid, cost, mem = inputs
        exact = set(pareto_prune(gid, cost, mem).tolist())
        kept = pareto_prune(gid, cost, mem, eps=eps)
        assert set(kept.tolist()) <= exact
        for g in np.unique(gid):
            mask = gid == g
            gk = kept[gid[kept] == g]
            if mask.any():
                assert cost[gk].min() == cost[mask].min()
                buckets = np.floor(np.log(np.maximum(mem[gk], 1.0))
                                   / math.log1p(eps)).astype(np.int64)
                assert len(np.unique(buckets)) == len(gk)


# ---------------------------------------------------------------------------
# The frontier DP vs brute force (the satellite hypothesis property)
# ---------------------------------------------------------------------------

def assert_frontiers_match(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        # Costs may differ in the last ulp (DP association vs
        # strategy_cost's table-order sum); memory sums are exact.
        assert math.isclose(a.cost, b.cost, rel_tol=1e-9, abs_tol=1e-12)
        assert a.peak_bytes == b.peak_bytes


class TestFrontierExactness:
    @settings(max_examples=25, deadline=None)
    @given(small_dags(max_nodes=5), st.sampled_from([2, 3, 4]))
    def test_matches_brute_force(self, graph, p):
        space, tables = setup(graph, p=p)
        res = find_best_strategy(graph, space, tables, objective="frontier")
        bf = brute_force_frontier(graph, space, tables)
        assert_frontiers_match(res.frontier, bf)

    @settings(max_examples=25, deadline=None)
    @given(small_dags(max_nodes=5), st.sampled_from([2, 3, 4]))
    def test_min_cost_point_bit_identical_to_scalar_dp(self, graph, p):
        space, tables = setup(graph, p=p)
        scalar = find_best_strategy(graph, space, tables)
        res = find_best_strategy(graph, space, tables, objective="frontier")
        assert res.frontier[0].cost == scalar.cost
        assert res.cost == scalar.cost
        assert res.strategy.assignment == res.frontier[0].strategy.assignment

    @settings(max_examples=15, deadline=None)
    @given(small_dags(max_nodes=5))
    def test_points_price_correctly(self, graph):
        """Every frontier point's strategy reprices to its recorded
        (cost, peak_bytes) pair."""
        space, tables = setup(graph)
        res = find_best_strategy(graph, space, tables, objective="frontier")
        for pt in res.frontier:
            pt.strategy.validate(graph, space.p)
            assert pt.strategy.cost(tables) == \
                pytest.approx(pt.cost, rel=1e-9)
            assert strategy_peak_bytes(graph, space, pt.strategy) == \
                pt.peak_bytes

    @settings(max_examples=12, deadline=None)
    @given(small_dags(max_nodes=5), st.randoms(use_true_random=False))
    def test_any_ordering_same_frontier(self, graph, rnd):
        space, tables = setup(graph)
        ref = find_best_strategy(graph, space, tables, objective="frontier")
        order = list(graph.node_names)
        rnd.shuffle(order)
        alt = find_best_strategy(graph, space, tables, objective="frontier",
                                 order=tuple(order))
        assert_frontiers_match(alt.frontier, ref.frontier)

    def test_chunked_merge_matches(self, diamond, monkeypatch):
        space, tables = setup(diamond)
        ref = find_best_strategy(diamond, space, tables, objective="frontier")
        monkeypatch.setattr("repro.core.kernels._BLOCK_CELLS", 7)
        tiny = find_best_strategy(diamond, space, tables, objective="frontier")
        assert_frontiers_match(tiny.frontier, ref.frontier)

    def test_frontier_sorted_and_nondominated(self, diamond):
        space, tables = setup(diamond)
        res = find_best_strategy(diamond, space, tables, objective="frontier")
        pts = res.frontier
        assert len(pts) >= 1
        for a, b in zip(pts, pts[1:]):
            assert a.cost <= b.cost
            assert a.peak_bytes > b.peak_bytes

    def test_empty_graph(self):
        from repro.core.graph import CompGraph
        g = CompGraph()
        space, tables = setup(g)
        res = find_best_strategy(g, space, tables, objective="frontier")
        assert res.cost == 0.0
        assert len(res.frontier) == 1
        assert res.frontier[0].peak_bytes == 0.0

    def test_rejects_bad_eps(self, diamond):
        space, tables = setup(diamond)
        with pytest.raises(ValueError, match="eps"):
            find_best_strategy(diamond, space, tables,
                               objective="frontier:eps=-1.0")


class TestEpsCoarsening:
    @settings(max_examples=15, deadline=None)
    @given(small_dags(max_nodes=5), st.sampled_from([0.01, 0.5]))
    def test_subset_with_exact_min_cost(self, graph, eps):
        """Coarsening can only shrink the frontier; the min-cost point
        stays bit-identical to the scalar optimum."""
        space, tables = setup(graph)
        exact = find_best_strategy(graph, space, tables, objective="frontier")
        coarse = find_best_strategy(graph, space, tables,
                                    objective=f"frontier:eps={eps}")
        assert len(coarse.frontier) <= len(exact.frontier)
        assert coarse.frontier[0].cost == exact.frontier[0].cost
        scalar = find_best_strategy(graph, space, tables)
        assert coarse.cost == scalar.cost
        assert coarse.stats["frontier_eps"] == eps


class TestReduceCompat:
    @settings(max_examples=10, deadline=None)
    @given(small_dags(max_nodes=5))
    def test_reduce_always_matches_plain(self, graph):
        """The memory-aware reduction must not lose frontier points; the
        lifted costs re-price through `strategy_cost`, so isclose."""
        space, tables = setup(graph)
        plain = find_best_strategy(graph, space, tables, objective="frontier")
        red = find_best_strategy(graph, space, tables, objective="frontier",
                                 reduce="always")
        assert red.method.endswith("+reduce")
        assert "reduction_seconds" in red.stats
        assert len(red.frontier) == len(plain.frontier)
        for a, b in zip(red.frontier, plain.frontier):
            assert math.isclose(a.cost, b.cost, rel_tol=1e-9,
                                abs_tol=1e-12)
            assert a.peak_bytes == b.peak_bytes

    @settings(max_examples=10, deadline=None)
    @given(small_dags(max_nodes=5))
    def test_reduced_tables_carry_pruned_memory(self, graph):
        """The memory-aware reduction publishes its pruned memory columns
        on the reduced tables, aligned with the config back-maps."""
        from repro.core.reduction import reduce_problem

        space, tables = setup(graph)
        mem = memory_tables(graph, space)
        red = reduce_problem(graph, space, tables, memory=mem)
        assert set(red.reduced_tables.mem) == set(red.survivors)
        for n in red.survivors:
            assert np.array_equal(red.reduced_tables.mem[n],
                                  mem[n][red.config_maps[n]])
        assert reduce_problem(graph, space, tables).reduced_tables.mem is None

    def test_auto_bypass_on_small_problem(self, diamond):
        space, tables = setup(diamond)
        res = find_best_strategy(diamond, space, tables, objective="frontier",
                                 reduce=True)
        assert res.stats.get("reduction_bypassed") == 1.0


class TestStatsAndDispatch:
    def test_stats_populated(self, diamond):
        space, tables = setup(diamond)
        res = find_best_strategy(diamond, space, tables, objective="frontier")
        assert res.method == "pase-dp+frontier"
        assert res.stats["frontier_points"] == float(len(res.frontier))
        assert res.stats["frontier_max_state_points"] >= 1.0
        assert res.stats["frontier_eps"] == 0.0
        assert res.stats["cells"] > 0

    def test_find_best_strategy_dispatches(self, diamond):
        """`find_best_strategy(objective="frontier")` is the frontier DP;
        `objective="cost"` is the scalar path, bit-identical."""
        space, tables = setup(diamond)
        plain = find_best_strategy(diamond, space, tables)
        scalar = find_best_strategy(diamond, space, tables,
                                    objective="cost")
        assert scalar.cost == plain.cost
        assert scalar.strategy.assignment == plain.strategy.assignment
        assert scalar.frontier == ()
        fr = find_best_strategy(diamond, space, tables,
                                objective="frontier")
        assert fr.method == "pase-dp+frontier"
        assert fr.cost == plain.cost
        assert len(fr.frontier) >= 1
        coarse = find_best_strategy(diamond, space, tables,
                                    objective="frontier:eps=0.5")
        assert coarse.stats["frontier_eps"] == 0.5

    def test_budget_exceeded_raises(self, diamond):
        from repro.core.exceptions import SearchResourceError
        space, tables = setup(diamond)
        with pytest.raises(SearchResourceError) as exc:
            find_best_strategy(diamond, space, tables, objective="frontier",
                               memory_budget=64)
        assert exc.value.budget_bytes == 64

    def test_checkpoint_called(self, diamond):
        space, tables = setup(diamond)
        seen = []
        find_best_strategy(
            diamond, space, tables, objective="frontier",
            ctx=RunContext(checkpoint=lambda **kw: seen.append(kw)))
        assert any(kw.get("phase") == "frontier" for kw in seen)


class TestStrategyPeakBytes:
    def test_matches_memory_tables_sum(self, diamond):
        space, tables = setup(diamond)
        res = find_best_strategy(diamond, space, tables)
        mem = memory_tables(diamond, space)
        idx = res.strategy.to_indices(space)
        want = sum(float(mem[n][k]) for n, k in idx.items())
        assert strategy_peak_bytes(diamond, space, res.strategy) == want

    @pytest.mark.parametrize(
        "name", ["alexnet", "rnnlm", "inception_v3", "transformer"])
    def test_bundled_models_match_memory_tables_sum(self, name):
        """Pricing only each node's chosen row equals Σ of the full
        memory tables over ``to_indices``, bit for bit, for the DP's
        strategy and a seeded random one at p=16."""
        from repro.core.strategy import Strategy
        from repro.models import BENCHMARKS

        graph = BENCHMARKS[name]()
        space = ConfigSpace.build(graph, 16)
        tables = CostModel(GTX1080TI).build_tables(graph, space)
        mem = memory_tables(graph, space)
        rng = np.random.default_rng(0)
        strategies = [
            find_best_strategy(graph, space, tables, reduce=True).strategy,
            Strategy.from_indices(space, {
                n: int(rng.integers(space.size(n))) for n in space.tables})]
        for strategy in strategies:
            idx = strategy.to_indices(space)
            want = sum(float(mem[n][k]) for n, k in idx.items())
            assert strategy_peak_bytes(graph, space, strategy) == want


class TestBundledModels:
    """Satellite: the frontier min-cost point is bit-identical to the
    scalar DP optimum on all four bundled models at p=8.  The two heavy
    models run eps-coarsened — coarsening only shrinks the frontier and
    its min-cost point is exact by construction, so the bit-identity
    claim is the same one (the exact p=16 frontiers are exercised by
    ``benchmarks/bench_frontier.py``)."""

    @pytest.mark.parametrize("name,eps", [
        ("alexnet", 0.0),
        ("rnnlm", 0.0),
        ("inception_v3", 10.0),
        ("transformer", 10.0),
    ])
    def test_min_cost_bit_identity_p8(self, name, eps):
        from repro.models import BENCHMARKS

        graph = BENCHMARKS[name]()
        space = ConfigSpace.build(graph, 8)
        tables = CostModel(GTX1080TI).build_tables(graph, space)
        scalar = find_best_strategy(graph, space, tables)
        res = find_best_strategy(graph, space, tables,
                                    objective=f"frontier:eps={eps}")
        assert res.frontier[0].cost == scalar.cost
        assert res.cost == scalar.cost
        for a, b in zip(res.frontier, res.frontier[1:]):
            assert a.cost <= b.cost and a.peak_bytes > b.peak_bytes


class TestFrontierPoint:
    def test_frozen_and_ordered_fields(self):
        from repro.core.strategy import Strategy
        pt = FrontierPoint(cost=1.0, peak_bytes=2.0, strategy=Strategy({}))
        with pytest.raises(AttributeError):
            pt.cost = 3.0
