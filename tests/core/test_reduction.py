"""Tests for the exact search-space reduction (dominance + contraction)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.configs import ConfigSpace
from repro.core.costmodel import CostModel, CostTables
from repro.core.dp import find_best_strategy
from repro.core.machine import GTX1080TI
from repro.core.naive import brute_force_strategy
from repro.core.reduction import (
    ReducedGraphView,
    dominance_keep_mask,
    dominance_keep_mask_reference,
    reduce_problem,
)
from tests.conftest import build_dag, small_dags


def _tables(graph, p, mode="all"):
    space = ConfigSpace.build(graph, p, mode=mode)
    return space, CostModel(GTX1080TI).build_tables(graph, space)


class TestDominanceKeepMask:
    def test_strictly_dominated_row_dropped(self):
        prof = np.array([[1.0, 1.0], [2.0, 2.0], [1.0, 3.0]])
        keep = dominance_keep_mask(prof)
        assert keep.tolist() == [True, False, False]

    def test_incomparable_rows_all_kept(self):
        prof = np.array([[1.0, 3.0], [3.0, 1.0], [2.0, 2.0]])
        assert dominance_keep_mask(prof).all()

    def test_exact_ties_keep_lowest_index(self):
        """An all-equal class must keep exactly its first row — the
        deterministic tie-break that makes row 0 (serial) survive."""
        prof = np.ones((4, 3))
        assert dominance_keep_mask(prof).tolist() == [True, False, False,
                                                      False]

    def test_tie_class_not_at_zero(self):
        prof = np.array([[0.0, 5.0], [2.0, 2.0], [2.0, 2.0], [9.0, 9.0]])
        keep = dominance_keep_mask(prof)
        assert keep.tolist() == [True, True, False, False]

    def test_single_row_trivial(self):
        assert dominance_keep_mask(np.zeros((1, 4))).tolist() == [True]

    @pytest.mark.parametrize("chunk", [1, 7, 10**9])
    def test_chunking_invariant(self, chunk):
        rng = np.random.default_rng(0)
        prof = rng.integers(0, 3, size=(23, 5)).astype(float)
        assert np.array_equal(dominance_keep_mask(prof, chunk_cells=chunk),
                              dominance_keep_mask(prof))

    def test_every_dropped_row_has_surviving_dominator(self):
        rng = np.random.default_rng(1)
        prof = rng.integers(0, 4, size=(40, 4)).astype(float)
        keep = dominance_keep_mask(prof)
        survivors = np.flatnonzero(keep)
        for j in np.flatnonzero(~keep):
            assert any((prof[i] <= prof[j]).all() for i in survivors
                       if i != j), f"row {j} dropped without a dominator"


class TestDominanceOnTables:
    def test_all_equal_rows_collapse_to_serial(self, chain3):
        """When every configuration costs the same, dominance must keep
        exactly index 0 for every node."""
        space, tables = _tables(chain3, 2)
        flat = CostTables(
            graph=chain3, space=space, machine=tables.machine,
            lc={n: np.zeros_like(a) for n, a in tables.lc.items()},
            pair_tx={k: np.zeros_like(m) for k, m in tables.pair_tx.items()},
            derived=True)
        red = reduce_problem(chain3, space, flat, contraction=False)
        for name in red.survivors:
            assert red.config_maps[name].tolist() == [0]

    def test_dominance_never_grows_the_space(self, diamond):
        space, tables = _tables(diamond, 4)
        red = reduce_problem(diamond, space, tables, contraction=False)
        for name in red.survivors:
            assert red.reduced_space.size(name) <= space.size(name)
            # back-map lands inside the original space
            sel = red.config_maps[name]
            assert (0 <= sel).all() and (sel < space.size(name)).all()


class TestChainContraction:
    def test_chain_contracts_fully(self, chain3):
        space, tables = _tables(chain3, 4)
        red = reduce_problem(chain3, space, tables, dominance=False)
        assert red.survivors == ()
        assert len(red.elims) == 3

    def test_expansion_round_trip_is_optimal(self, chain3):
        """A fully contracted chain must expand to the brute-force optimum
        at identical cost."""
        space, tables = _tables(chain3, 4)
        red = reduce_problem(chain3, space, tables, dominance=False)
        full = red.expand_indices({})
        truth = brute_force_strategy(chain3, space, tables)
        assert math.isclose(tables.strategy_cost(full), truth.cost,
                            rel_tol=1e-9)

    def test_parallel_edges_accumulate(self, diamond):
        """Eliminating n1 and n2 (both on n0—n3) must fold both paths onto
        the same reduced edge, not lose one."""
        space, tables = _tables(diamond, 4)
        red = reduce_problem(diamond, space, tables, dominance=False)
        res = find_best_strategy(diamond, space, tables, reduce="always")
        truth = brute_force_strategy(diamond, space, tables)
        assert math.isclose(res.cost, truth.cost, rel_tol=1e-9)
        assert red.stats["reduction_vertices_removed"] >= 2.0


class TestReducedProblem:
    def test_reduced_tables_marked_derived(self, diamond):
        space, tables = _tables(diamond, 4)
        red = reduce_problem(diamond, space, tables)
        assert red.reduced_tables.derived

    def test_stats_keys_complete(self, diamond):
        space, tables = _tables(diamond, 4)
        red = reduce_problem(diamond, space, tables)
        for key in ("reduction_seconds", "reduction_rounds",
                    "reduction_configs_removed",
                    "reduction_vertices_removed", "reduction_cells_removed",
                    "reduction_cells_before", "reduction_cells_after"):
            assert key in red.stats
        assert red.stats["reduction_cells_after"] <= \
            red.stats["reduction_cells_before"]

    def test_graph_view_protocol(self):
        view = ReducedGraphView(("a", "b"), {"a": ("b",), "b": ("a",)})
        assert len(view) == 2 and "a" in view and "z" not in view
        assert view.neighbors("b") == ("a",)
        assert view.degree("a") == 1


class TestReducedDPExactness:
    @pytest.mark.parametrize("p", [2, 4])
    def test_matches_plain_dp_on_branchy_graph(self, p):
        g = build_dag(8, [(0, 4), (2, 6), (3, 7)], param_mask=0b1010)
        space, tables = _tables(g, p, mode="pow2")
        plain = find_best_strategy(g, space, tables)
        red = find_best_strategy(g, space, tables, reduce="always")
        red.strategy.validate(g, p)
        assert red.strategy.cost(tables) == plain.strategy.cost(tables)
        assert red.method.endswith("+reduce")

    @settings(max_examples=25, deadline=None)
    @given(small_dags(max_nodes=5), st.integers(2, 4))
    def test_reduced_dp_matches_brute_force(self, graph, p):
        """The load-bearing exactness property: on arbitrary small graphs
        with the full ``mode="all"`` space, the reduced DP recovers the
        exhaustive-search optimum exactly."""
        space, tables = _tables(graph, p)
        truth = brute_force_strategy(graph, space, tables)
        red = find_best_strategy(graph, space, tables, reduce="always")
        assert math.isclose(red.cost, truth.cost, rel_tol=1e-9, abs_tol=1e-9)
        red.strategy.validate(graph, p)
        assert math.isclose(red.strategy.cost(tables), truth.cost,
                            rel_tol=1e-9, abs_tol=1e-9)

    @settings(max_examples=10, deadline=None)
    @given(small_dags(max_nodes=4), st.integers(2, 3))
    def test_single_rule_variants_also_exact(self, graph, p):
        space, tables = _tables(graph, p)
        truth = brute_force_strategy(graph, space, tables)
        for kwargs in ({"contraction": False}, {"dominance": False}):
            red = reduce_problem(graph, space, tables, **kwargs)
            if red.survivors:
                inner = find_best_strategy(red.reduced_graph,
                                           red.reduced_space,
                                           red.reduced_tables)
                res = red.expand_result(inner)
            else:
                full = red.expand_indices({})
                res_cost = tables.strategy_cost(full)
                assert math.isclose(res_cost, truth.cost, rel_tol=1e-9)
                continue
            assert math.isclose(res.cost, truth.cost, rel_tol=1e-9)


class TestDominanceMaskParity:
    """The kernel-dispatched keep-mask must match the retained reference
    bit for bit — same drops, same tie-breaks, any chunking."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.integers(1, 8),
           st.integers(1, 5))
    def test_matches_reference_on_random_profiles(self, seed, k, c, levels):
        rng = np.random.default_rng(seed)
        # Few distinct levels -> dense ties and dominations, the regime
        # where tie-break bugs surface.
        prof = rng.integers(0, levels, size=(k, c)).astype(float)
        assert np.array_equal(dominance_keep_mask(prof),
                              dominance_keep_mask_reference(prof))

    @pytest.mark.parametrize("chunk", [1, 7, 10**9])
    def test_chunked_matches_reference(self, chunk):
        rng = np.random.default_rng(7)
        prof = rng.integers(0, 3, size=(60, 6)).astype(float)
        assert np.array_equal(
            dominance_keep_mask(prof, chunk_cells=chunk),
            dominance_keep_mask_reference(prof))

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 300), st.integers(1, 12),
           st.integers(1, 4))
    def test_many_dominators_match_reference(self, seed, k, c, bases):
        """Rows built from a few base rows plus sparse non-negative
        perturbations and exact duplicates: most rows have many
        dominators and ties are common, the regime of the bundled
        models at p >= 32."""
        rng = np.random.default_rng(seed)
        base = rng.integers(0, 5, size=(bases, c)).astype(float)
        prof = base[rng.integers(0, bases, size=k)]
        bump = rng.integers(0, 3, size=(k, c)) * (rng.random((k, c)) < 0.3)
        prof = prof + bump
        dup = rng.random(k) < 0.2
        prof[dup] = prof[rng.integers(0, k, size=int(dup.sum()))]
        ref = dominance_keep_mask_reference(prof)
        for chunk in (1, 7, None):
            kwargs = {} if chunk is None else {"chunk_cells": chunk}
            assert np.array_equal(dominance_keep_mask(prof, **kwargs), ref)


def _assert_reductions_identical(fast, ref):
    """Bit-identity between a vectorized and a reference reduction."""
    assert fast.base_cost == ref.base_cost
    assert fast.survivors == ref.survivors
    assert fast.stats["reduction_rounds"] == ref.stats["reduction_rounds"]
    assert fast.stats["reduction_configs_removed"] == \
        ref.stats["reduction_configs_removed"]
    for name in fast.survivors:
        assert np.array_equal(fast.config_maps[name], ref.config_maps[name])
        assert np.array_equal(fast.reduced_tables.lc[name],
                              ref.reduced_tables.lc[name])
    assert set(fast.reduced_tables.pair_tx) == set(ref.reduced_tables.pair_tx)
    for key in fast.reduced_tables.pair_tx:
        assert np.array_equal(fast.reduced_tables.pair_tx[key],
                              ref.reduced_tables.pair_tx[key])
    assert len(fast.elims) == len(ref.elims)
    for ra, rb in zip(fast.elims, ref.elims):
        assert ra.node == rb.node
        assert ra.deps == rb.deps
        assert np.array_equal(ra.table, rb.table)
        assert np.array_equal(ra.sel, rb.sel)


class TestVectorizedParity:
    """The vectorized fixed point (kernels + dirty-set worklist) must
    reproduce the pre-vectorization reference exactly: same elimination
    order and argmin tables, same surviving selections, same folded
    constant, bit-identical reduced tables."""

    @settings(max_examples=20, deadline=None)
    @given(small_dags(max_nodes=6), st.integers(2, 4))
    def test_random_graphs(self, graph, p):
        space, tables = _tables(graph, p)
        fast = reduce_problem(graph, space, tables, vectorized=True)
        ref = reduce_problem(graph, space, tables, vectorized=False)
        _assert_reductions_identical(fast, ref)

    @settings(max_examples=10, deadline=None)
    @given(small_dags(max_nodes=5), st.integers(2, 3))
    def test_random_graphs_single_rule(self, graph, p):
        space, tables = _tables(graph, p)
        for kwargs in ({"contraction": False}, {"dominance": False}):
            fast = reduce_problem(graph, space, tables, vectorized=True,
                                  **kwargs)
            ref = reduce_problem(graph, space, tables, vectorized=False,
                                 **kwargs)
            _assert_reductions_identical(fast, ref)

    @pytest.mark.parametrize("net, p", [
        pytest.param("alexnet", 8, id="alexnet"),
        pytest.param("inception_v3", 8, id="inception_v3"),
        pytest.param("rnnlm", 8, id="rnnlm"),
        pytest.param("transformer", 8, id="transformer"),
        # K=251 with 5,009 dominated configs: many dominators per row.
        pytest.param("transformer", 32, id="transformer-32"),
    ])
    def test_bundled_models(self, net, p):
        from repro.models import BENCHMARKS

        graph = BENCHMARKS[net]()
        space = ConfigSpace.build(graph, p, mode="pow2")
        tables = CostModel(GTX1080TI).build_tables(graph, space)
        fast = reduce_problem(graph, space, tables, vectorized=True)
        ref = reduce_problem(graph, space, tables, vectorized=False)
        _assert_reductions_identical(fast, ref)
