"""Tests for the exact search-space reduction (dominance + contraction).

The per-vertex kernels below are the reduction's parity oracle: the
pre-vectorization keep-mask and min-fold, swapped into
`repro.core.reduction` by :func:`_reduce` together with a reducer that
re-prunes every node each round and computes every kernel call (no
memo), so the production fixed point (kernels, dirty-set worklist and
kernel memo) is checked bit for bit against them.
"""

import math
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import kernels, reduction
from repro.core.configs import ConfigSpace
from repro.core.costmodel import CostModel, CostTables
from repro.core.dp import find_best_strategy
from repro.core.machine import GTX1080TI
from repro.core.naive import brute_force_strategy
from repro.core.reduction import (
    ReducedGraphView,
    dominance_keep_mask,
    reduce_problem,
)
from tests.conftest import build_dag, small_dags


def _tables(graph, p, mode="all"):
    space = ConfigSpace.build(graph, p, mode=mode)
    return space, CostModel(GTX1080TI).build_tables(graph, space)


def dominance_keep_mask_reference(profile, *,
                                  chunk_cells=reduction._REDUCTION_CHUNK_CELLS):
    """The pre-vectorization keep-mask: every row against every row."""
    prof = np.ascontiguousarray(profile, dtype=np.float64)
    k, c = prof.shape
    if k <= 1:
        return np.ones(k, dtype=bool)
    dominated = np.zeros(k, dtype=bool)
    rows_i = np.arange(k)[:, None]
    chunk = max(1, chunk_cells // max(k * c, 1))
    for j0 in range(0, k, chunk):
        j1 = min(k, j0 + chunk)
        block = prof[j0:j1]                                   # [c0, C]
        le = (prof[:, None, :] <= block[None, :, :]).all(-1)  # [K, c0]
        ge = (prof[:, None, :] >= block[None, :, :]).all(-1)
        beats = le & (~ge | (rows_i < np.arange(j0, j1)[None, :]))
        dominated[j0:j1] |= beats.any(axis=0)
    return ~dominated


def _min_over_middle(mat_uw, bt, *, chunk_cells):
    """``min/argmin over k_w`` of ``tx(u,w) + (lc_w + tx(w,v))``, chunked.

    ``bt`` is the ``[K_v, K_w]`` transposed right operand that
    `kernels.min_plus_fold` takes; the cube ``[rows, K_w, K_v]`` is
    evaluated in row-chunks of ``K_u`` within ``chunk_cells`` cells.
    """
    ku, kw = mat_uw.shape
    mid = bt.T[None, :, :]                                   # [1, K_w, K_v]
    kv = mid.shape[2]
    folded = np.empty((ku, kv), dtype=np.float64)
    arg = np.empty((ku, kv), dtype=np.int32)
    rows = max(1, chunk_cells // max(kw * kv, 1))
    for a0 in range(0, ku, rows):
        a1 = min(ku, a0 + rows)
        cube = mat_uw[a0:a1, :, None] + mid                  # [rows, K_w, K_v]
        folded[a0:a1] = cube.min(axis=1)
        arg[a0:a1] = cube.argmin(axis=1)
    return folded, arg


_REFERENCE_KERNELS = types.SimpleNamespace(
    last_axis_min_argmin=lambda prof: (
        prof.min(axis=1), prof.argmin(axis=1).astype(np.int32)),
    min_plus_fold=_min_over_middle,
)


class _EveryNode(set):
    """A dirty set that holds every node: each round re-prunes them all."""

    def __contains__(self, name):
        return True


class _Forgetful(dict):
    """A kernel memo that keeps nothing: every call computes."""

    def __setitem__(self, key, value):
        pass


class _Unmemoized(reduction._Reducer):
    """The production reducer with its kernel memo off."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.memo = _Forgetful()


class _ReferenceReducer(_Unmemoized):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.dirty = _EveryNode()


def _reduce(graph, space, tables, *, reference=False, only=None, **kwargs):
    """`reduce_problem`, on the reference kernels without the worklist
    when ``reference``, and with one rule (``"dominance"`` or
    ``"contraction"``) when ``only`` names it."""
    with pytest.MonkeyPatch.context() as mp:
        if reference:
            mp.setattr(reduction, "dominance_keep_mask",
                       dominance_keep_mask_reference)
            mp.setattr(reduction, "kernels", _REFERENCE_KERNELS)
            mp.setattr(reduction, "_Reducer", _ReferenceReducer)
        if only is not None:
            off = {"dominance": "eliminate_node",
                   "contraction": "prune_node"}[only]
            mp.setattr(reduction._Reducer, off, lambda self, name: False)
        return reduce_problem(graph, space, tables, **kwargs)


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
        assert np.array_equal(
            kernels.dominance_mask(prof, chunk_cells=chunk),
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
        red = _reduce(chain3, space, flat, only="dominance")
        for name in red.survivors:
            assert red.config_maps[name].tolist() == [0]

    def test_dominance_never_grows_the_space(self, diamond):
        space, tables = _tables(diamond, 4)
        red = _reduce(diamond, space, tables, only="dominance")
        for name in red.survivors:
            assert red.reduced_space.size(name) <= space.size(name)
            # back-map lands inside the original space
            sel = red.config_maps[name]
            assert (0 <= sel).all() and (sel < space.size(name)).all()


class TestChainContraction:
    def test_chain_contracts_fully(self, chain3):
        space, tables = _tables(chain3, 4)
        red = _reduce(chain3, space, tables, only="contraction")
        assert red.survivors == ()
        assert len(red.elims) == 3

    def test_expansion_round_trip_is_optimal(self, chain3):
        """A fully contracted chain must expand to the brute-force optimum
        at identical cost."""
        space, tables = _tables(chain3, 4)
        red = _reduce(chain3, space, tables, only="contraction")
        full = red.expand_indices({})
        truth = brute_force_strategy(chain3, space, tables)
        assert math.isclose(tables.strategy_cost(full), truth.cost,
                            rel_tol=1e-9)

    def test_parallel_edges_accumulate(self, diamond):
        """Eliminating n1 and n2 (both on n0—n3) must fold both paths onto
        the same reduced edge, not lose one."""
        space, tables = _tables(diamond, 4)
        red = _reduce(diamond, space, tables, only="contraction")
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
        for rule in ("dominance", "contraction"):
            red = _reduce(graph, space, tables, only=rule)
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
            kernels.dominance_mask(prof, chunk_cells=chunk),
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
        assert np.array_equal(dominance_keep_mask(prof), ref)
        for chunk in (1, 7):
            assert np.array_equal(
                kernels.dominance_mask(prof, chunk_cells=chunk), ref)


def _assert_reductions_identical(fast, ref):
    """Bit-identity between a vectorized and a reference reduction."""
    assert fast.base_cost == ref.base_cost
    assert fast.survivors == ref.survivors
    assert fast.stats["reduction_rounds"] == ref.stats["reduction_rounds"]
    assert fast.stats["reduction_configs_removed"] == \
        ref.stats["reduction_configs_removed"]
    assert (fast.reduced_tables.mem is None) == \
        (ref.reduced_tables.mem is None)
    for name in fast.survivors:
        assert np.array_equal(fast.config_maps[name], ref.config_maps[name])
        assert np.array_equal(fast.reduced_tables.lc[name],
                              ref.reduced_tables.lc[name])
        if fast.reduced_tables.mem is not None:
            assert np.array_equal(fast.reduced_tables.mem[name],
                                  ref.reduced_tables.mem[name])
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
        fast = _reduce(graph, space, tables)
        ref = _reduce(graph, space, tables, reference=True)
        _assert_reductions_identical(fast, ref)

    @settings(max_examples=10, deadline=None)
    @given(small_dags(max_nodes=5), st.integers(2, 3))
    def test_random_graphs_single_rule(self, graph, p):
        space, tables = _tables(graph, p)
        for rule in ("dominance", "contraction"):
            fast = _reduce(graph, space, tables, only=rule)
            ref = _reduce(graph, space, tables, reference=True, only=rule)
            _assert_reductions_identical(fast, ref)

    def test_small_integer_tables_memory_path(self):
        """Two-level costs on a chain, with memory columns, where
        contraction is off and only dominance runs: dense ties make a
        prune drop columns from an already-pruned neighbour's profile,
        which must send that neighbour back through the prune."""
        graph = build_dag(5, [])
        space, model = _tables(graph, 3)
        rng = np.random.default_rng(0)
        draw = lambda shape: rng.integers(0, 2, size=shape).astype(float)
        for _ in range(60):
            tables = CostTables(
                graph=graph, space=space, machine=model.machine,
                lc={n: draw(a.shape) for n, a in model.lc.items()},
                pair_tx={k: draw(m.shape) for k, m in model.pair_tx.items()},
                derived=True)
            memory = {n: draw(a.shape) for n, a in model.lc.items()}
            fast = _reduce(graph, space, tables, memory=memory)
            ref = _reduce(graph, space, tables, memory=memory, reference=True)
            _assert_reductions_identical(fast, ref)

    def test_memo_computes_fewer_calls_than_it_makes(self):
        """Transformer repeats its layers, so its reduction hands the
        keep-mask and the fold identical operands: fewer calls compute
        than are made, and the result still matches the reference."""
        from repro.models import BENCHMARKS

        graph = BENCHMARKS["transformer"]()
        space = ConfigSpace.build(graph, 8, mode="pow2")
        tables = CostModel(GTX1080TI).build_tables(graph, space)
        runs = []
        for reducer in (reduction._Reducer, _Unmemoized):
            ran = {"mask": 0, "fold": 0}

            def counted(name, kernel):
                def run(*args, **kwargs):
                    ran[name] += 1
                    return kernel(*args, **kwargs)
                return run

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(reduction, "dominance_keep_mask",
                           counted("mask", reduction.dominance_keep_mask))
                mp.setattr(reduction.kernels, "min_plus_fold",
                           counted("fold", reduction.kernels.min_plus_fold))
                mp.setattr(reduction, "_Reducer", reducer)
                runs.append((reduce_problem(graph, space, tables), ran))
        (fast, computed), (unmemoized, made) = runs
        _assert_reductions_identical(fast, unmemoized)
        assert 0 < computed["mask"] < made["mask"]
        assert 0 < computed["fold"] < made["fold"]
        _assert_reductions_identical(
            fast, _reduce(graph, space, tables, reference=True))

    def test_memoized_fold_is_read_only_and_shared(self, diamond):
        """n1 and n2 fold identical operands onto n0-n3: the second
        elimination reuses the first's result, which is read-only."""
        space, tables = _tables(diamond, 4)
        red = reduction._Reducer(diamond, space, tables)
        red.eliminate_node("n1")
        folded = red.tx[("n0", "n3")]
        with pytest.raises(ValueError):
            folded[0, 0] = 0.0
        with pytest.raises(ValueError):
            red.elims[0].table[0, 0] = 0
        red.eliminate_node("n2")
        assert red.calls["fold"] == 2 and red.computed["fold"] == 1
        assert red.elims[1].table is red.elims[0].table
        assert np.array_equal(red.tx[("n0", "n3")], folded + folded)

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
        fast = _reduce(graph, space, tables)
        ref = _reduce(graph, space, tables, reference=True)
        _assert_reductions_identical(fast, ref)
