"""Unit and property tests for the analytic cost model and its table
build.

`transfer_bytes_oracle` is the ``[K_u, K_v, m]`` overlap formula the
cost model used before it priced ``t_x`` from per-axis extents; the
production matrices, and the tables built with one matrix per distinct
edge, must match it byte for byte.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.configs import ConfigSpace, enumerate_configs
from repro.core.costmodel import CostModel, allreduce_bytes
from repro.core.dims import Dim, shard_extent
from repro.core.machine import GTX1080TI, RTX2080TI, UNIT_BALANCE, MachineSpec
from repro.core.tensors import DTYPE_BYTES, TensorSpec
from repro.ops.base import OpSpec
from repro.runtime import RunContext
from tests.conftest import build_dag, make_test_op, small_dags
from tests.core.test_tensors import gemm_op


def transfer_bytes_oracle(src, out_spec, dst, in_spec, configs_u, configs_v):
    """t_x in bytes with the overlap ``Π ceil(s / max(a, b))`` taken over
    the full ``[K_u, K_v, m]`` cube of joint splits."""
    cu = np.asarray(configs_u, dtype=np.int64)
    cv = np.asarray(configs_v, dtype=np.int64)
    shape = np.asarray(out_spec.shape(src), dtype=np.int64)
    if shape.size == 0:
        return np.zeros((cu.shape[0], cv.shape[0]), dtype=np.float64)
    splits_u = out_spec.splits(src, cu)
    splits_v = in_spec.splits(dst, cv)
    held = np.prod(shard_extent(shape, splits_u), axis=-1, dtype=np.int64)
    need = np.prod(shard_extent(shape, splits_v), axis=-1, dtype=np.int64)
    joint = np.maximum(splits_u[:, None, :], splits_v[None, :, :])
    ov = np.prod(shard_extent(shape, joint), axis=-1, dtype=np.int64)
    rep_u = np.prod(cu, axis=-1) // np.maximum(np.prod(splits_u, axis=-1), 1)
    rep_v = np.prod(cv, axis=-1) // np.maximum(np.prod(splits_v, axis=-1), 1)
    starved_fwd = rep_v[None, :] > rep_u[:, None]
    starved_bwd = rep_u[:, None] > rep_v[None, :]
    fwd = np.where(starved_fwd, need[None, :],
                   np.maximum(need[None, :] - ov, 0))
    bwd = np.where(starved_bwd, held[:, None],
                   np.maximum(held[:, None] - ov, 0))
    return 2.0 * (fwd + bwd).astype(np.float64) * DTYPE_BYTES


def pair_tx_oracle(graph, space, cm):
    """`CostTables.pair_tx` built edge by edge with the oracle, no reuse."""
    pair_tx = {}
    for e in graph.edges:
        src, dst = graph.node(e.src), graph.node(e.dst)
        mat = transfer_bytes_oracle(
            src, src.outputs[e.src_port], dst, dst.inputs[e.dst_port],
            space.configs(e.src), space.configs(e.dst)) * cm.r
        key = (e.src, e.dst)
        if e.dst < e.src:
            key, mat = (e.dst, e.src), mat.T
        pair_tx[key] = pair_tx[key] + mat if key in pair_tx else mat
    return pair_tx


def assert_same_bytes(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert np.ascontiguousarray(a).tobytes() == \
        np.ascontiguousarray(b).tobytes()


class TestAllreduceBytes:
    def test_single_device_free(self):
        assert allreduce_bytes(1000.0, 1) == 0.0

    def test_ring_formula(self):
        assert allreduce_bytes(100.0, 4) == pytest.approx(2 * 100 * 3 / 4)

    def test_vectorized(self):
        out = allreduce_bytes(np.array([100.0, 100.0]), np.array([1, 2]))
        assert out.tolist() == [0.0, 100.0]

    @given(st.floats(1, 1e9), st.integers(2, 1024))
    def test_bounds(self, v, m):
        b = float(allreduce_bytes(v, m))
        assert v * 0.99 <= b <= 2 * v  # 2v(m-1)/m in [v, 2v) for m >= 2


class TestLayerCost:
    def test_serial_cost_is_flops_plus_update(self):
        op = gemm_op()
        cm = CostModel(UNIT_BALANCE)
        cost = cm.layer_cost(op, np.array([[1, 1, 1]]))
        expect = op.flops + op.param_volume() * CostModel.UPDATE_FLOPS_PER_PARAM
        assert cost.tolist() == [pytest.approx(expect)]

    def test_compute_divides_by_parts(self):
        op = gemm_op(b=8)
        cm = CostModel(UNIT_BALANCE, include_grad_sync=False)
        serial = cm.layer_cost(op, np.array([[1, 1, 1]]))[0]
        split = cm.layer_cost(op, np.array([[8, 1, 1]]))[0]
        assert split < serial

    def test_data_parallel_pays_grad_sync(self):
        op = gemm_op(b=8)
        cm = CostModel(GTX1080TI)
        comm = cm.layer_comm_bytes(op, np.array([[8, 1, 1]]))
        w_bytes = op.inputs["w"].volume(op) * DTYPE_BYTES
        assert comm[0] == pytest.approx(2 * w_bytes * 7 / 8)

    def test_reduction_split_pays_partial_sum_combine(self):
        op = gemm_op(c=8)
        cm = CostModel(GTX1080TI, include_grad_sync=False)
        comm = cm.layer_comm_bytes(op, np.array([[1, 1, 4]]))
        out_bytes = op.outputs["out"].volume(op) * DTYPE_BYTES
        assert comm[0] == pytest.approx(2 * 2 * out_bytes * 3 / 4)

    def test_param_parallel_no_sync(self):
        op = gemm_op()
        cm = CostModel(GTX1080TI)
        comm = cm.layer_comm_bytes(op, np.array([[1, 6, 1]]))
        assert comm[0] == 0.0  # weight fully covered by n-split

    def test_ablation_flags(self):
        op = gemm_op(b=8, c=8)
        cfgs = np.array([[8, 1, 1], [1, 1, 8]])
        base = CostModel(GTX1080TI).layer_comm_bytes(op, cfgs)
        no_sync = CostModel(GTX1080TI, include_grad_sync=False) \
            .layer_comm_bytes(op, cfgs)
        no_red = CostModel(GTX1080TI, include_reduction=False) \
            .layer_comm_bytes(op, cfgs)
        assert no_sync[0] < base[0]
        assert no_red[1] < base[1]


class TestTransferCost:
    def make(self):
        g = build_dag(2, [])
        return g, g.node("n0"), g.node("n1")

    def matrix(self, cu, cv, cm=None):
        g, u, v = self.make()
        cm = cm or CostModel(UNIT_BALANCE)
        return cm.transfer_bytes_matrix(
            u, u.outputs["out"], v, v.inputs["in0"],
            np.array(cu), np.array(cv))

    def test_matched_configs_free(self):
        mat = self.matrix([[2, 2]], [[2, 2]])
        assert mat[0, 0] == 0.0

    def test_serial_to_serial_free(self):
        assert self.matrix([[1, 1]], [[1, 1]])[0, 0] == 0.0

    def test_mismatch_costs(self):
        mat = self.matrix([[4, 1]], [[1, 4]])
        assert mat[0, 0] > 0.0

    def test_direction_symmetry(self):
        """t_x(u,v,φ) == t_x(v,u,φ) — paper footnote 2."""
        g, u, v = self.make()
        cm = CostModel(UNIT_BALANCE)
        cu = np.array([[1, 1], [4, 1], [2, 2], [1, 4]])
        cv = np.array([[1, 1], [2, 1], [1, 2], [4, 1]])
        fwd = cm.transfer_bytes_matrix(u, u.outputs["out"], v,
                                       v.inputs["in0"], cu, cv)
        rev = cm.transfer_bytes_matrix(v, v.inputs["in0"], u,
                                       u.outputs["out"], cv, cu)
        assert np.allclose(fwd, rev.T)

    def test_replication_starvation(self):
        """A consumer replicating beyond the producer's copies pays its
        full need (the bug class found against the simulator)."""
        op_u = gemm_op("u", b=8, n=4, c=4)
        op_v = gemm_op("v", b=8, n=4, c=4)
        cm = CostModel(UNIT_BALANCE)
        # u: b-split 4 -> 4 distinct blocks, no replication.
        # v: b-split 4 and n-split 2 -> input replicated twice.
        mat = cm.transfer_bytes_matrix(
            op_u, op_u.outputs["out"], op_v, op_v.inputs["in"],
            np.array([[4, 1, 1]]), np.array([[4, 2, 1]]))
        need = op_v.inputs["in"].shard_volume(op_v, np.array([[4, 2, 1]]))[0]
        assert mat[0, 0] >= need * DTYPE_BYTES

    def test_scales_with_volume(self):
        small = self.matrix([[4, 1]], [[1, 4]])
        g2 = build_dag(2, [], batch=8, width=12)
        cm = CostModel(UNIT_BALANCE)
        u, v = g2.node("n0"), g2.node("n1")
        big = cm.transfer_bytes_matrix(u, u.outputs["out"], v, v.inputs["in0"],
                                       np.array([[4, 1]]), np.array([[1, 4]]))
        assert big[0, 0] > small[0, 0]


class TestTransferOracle:
    """Per-axis extents price ``t_x`` exactly as the joint-split cube."""

    @staticmethod
    def rank_op(name, extents, order, extra):
        """An op whose ``in``/``out`` tensor has axes ``t0..t{r-1}`` of the
        given extents, its dims listed in ``order`` plus an ``x`` dim of
        size ``extra`` that replicates the tensor when split."""
        dims = tuple(Dim(f"t{i}", extents[i]) for i in order) \
            + (Dim("x", extra),)
        axes = tuple(f"t{i}" for i in range(len(extents)))
        return OpSpec(name=name, kind="test", dims=dims,
                      inputs={"in": TensorSpec(axes=axes)},
                      outputs={"out": TensorSpec(axes=axes)})

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(1, 13), min_size=1, max_size=4),
           st.integers(1, 4), st.integers(1, 4), st.integers(1, 8),
           st.randoms(use_true_random=False))
    def test_matches_oracle_byte_for_byte(self, extents, x_u, x_v, p, rnd):
        """Ranks 1-4, extents the splits rarely divide, the consumer's
        dims in another order, random config rows on both sides."""
        order = list(range(len(extents)))
        rnd.shuffle(order)
        u = self.rank_op("u", extents, range(len(extents)), x_u)
        v = self.rank_op("v", extents, order, x_v)
        cu, cv = (enumerate_configs(op, p, mode="all") for op in (u, v))
        cu = cu[[rnd.randrange(len(cu)) for _ in range(rnd.randint(1, 40))]]
        cv = cv[[rnd.randrange(len(cv)) for _ in range(rnd.randint(1, 40))]]
        args = (u, u.outputs["out"], v, v.inputs["in"], cu, cv)
        assert_same_bytes(CostModel(UNIT_BALANCE).transfer_bytes_matrix(*args),
                          transfer_bytes_oracle(*args))


class TestDistinctEdgeBuild:
    """`build_tables` prices each distinct edge once and shares the
    matrix; the tables must equal a per-edge build with no reuse."""

    @pytest.mark.parametrize("net", ["alexnet", "inception_v3", "rnnlm",
                                     "transformer"])
    def test_bundled_models(self, net):
        from repro.models import BENCHMARKS

        graph = BENCHMARKS[net]()
        space = ConfigSpace.build(graph, 8)
        cm = CostModel(GTX1080TI)
        built = cm.build_tables(graph, space).pair_tx
        oracle = pair_tx_oracle(graph, space, cm)
        assert list(built) == list(oracle)
        for key, mat in oracle.items():
            assert_same_bytes(built[key], mat)

    def test_equal_extents_different_replication(self):
        """Two consumers whose configuration rows split the tensor alike
        but replicate it differently: the shared extents must not make
        them share a matrix."""
        from repro.core.graph import CompGraph, Edge

        x = OpSpec(name="x", kind="test", dims=(Dim("b", 4), Dim("m", 6),
                                                Dim("r", 2)),
                   inputs={"in": TensorSpec(axes=("b", "m"))},
                   outputs={"out": TensorSpec(axes=("b", "m"))})
        g = CompGraph([make_test_op("a"), make_test_op("c"), x])
        g.add_edge(Edge("a", "out", "c", "in0"))
        g.add_edge(Edge("a", "out", "x", "in"))
        space = ConfigSpace.build(g, 4)
        rows = space.configs("c")
        space.tables["x"] = np.column_stack(
            [rows, np.arange(len(rows)) % 2 + 1])
        cm = CostModel(GTX1080TI)
        built = cm.build_tables(g, space).pair_tx
        oracle = pair_tx_oracle(g, space, cm)
        assert not np.array_equal(oracle[("a", "c")], oracle[("a", "x")])
        for key, mat in oracle.items():
            assert_same_bytes(built[key], mat)

    @settings(max_examples=25, deadline=None)
    @given(small_dags(max_nodes=6), st.integers(2, 4))
    def test_small_dags(self, graph, p):
        space = ConfigSpace.build(graph, p, mode="all")
        cm = CostModel(GTX1080TI)
        built = cm.build_tables(graph, space).pair_tx
        oracle = pair_tx_oracle(graph, space, cm)
        assert list(built) == list(oracle)
        for key, mat in oracle.items():
            assert_same_bytes(built[key], mat)


class TestCostTables:
    def setup_tables(self, machine: MachineSpec = GTX1080TI):
        g = build_dag(3, [(0, 2)], param_mask=0b111, reduction_mask=0b010)
        space = ConfigSpace.build(g, 4)
        tables = CostModel(machine).build_tables(g, space)
        return g, space, tables

    def test_shapes(self):
        g, space, tables = self.setup_tables()
        for n in g.node_names:
            assert tables.lc[n].shape == (space.size(n),)
        for (u, v), mat in tables.pair_tx.items():
            assert mat.shape == (space.size(u), space.size(v))

    def test_tx_orientation(self):
        g, space, tables = self.setup_tables()
        a = tables.tx("n0", "n1")
        b = tables.tx("n1", "n0")
        assert np.array_equal(a, b.T)

    def test_strategy_cost_sums_terms(self):
        g, space, tables = self.setup_tables()
        idx = {n: 0 for n in g.node_names}
        expect = sum(float(tables.lc[n][0]) for n in g.node_names)
        expect += sum(float(m[0, 0]) for m in tables.pair_tx.values())
        assert tables.strategy_cost(idx) == pytest.approx(expect)

    def test_strategy_cost_missing_node(self):
        from repro.core.exceptions import StrategyError
        _, _, tables = self.setup_tables()
        with pytest.raises(StrategyError):
            tables.strategy_cost({"n0": 0})

    def test_strategy_cost_extra_node(self):
        """Unknown names are rejected, symmetric with missing ones — a
        silently ignored typo would price the wrong strategy."""
        from repro.core.exceptions import StrategyError
        g, _, tables = self.setup_tables()
        idx = {n: 0 for n in g.node_names}
        idx["phantom"] = 0
        with pytest.raises(StrategyError, match="unknown"):
            tables.strategy_cost(idx)

    def test_multi_edges_summed(self):
        from repro.core.graph import CompGraph, Edge
        g = CompGraph([make_test_op("a"), make_test_op("b", n_in=2)])
        g.add_edge(Edge("a", "out", "b", "in0"))
        g.add_edge(Edge("a", "out", "b", "in1"))
        space = ConfigSpace.build(g, 4)
        tables = CostModel(UNIT_BALANCE).build_tables(g, space)
        a, b = g.node("a"), g.node("b")
        single = CostModel(UNIT_BALANCE).transfer_bytes_matrix(
            a, a.outputs["out"], b, b.inputs["in0"],
            space.configs("a"), space.configs("b"))
        assert np.allclose(tables.tx("a", "b"),
                           2 * single * UNIT_BALANCE.flop_byte_ratio)

    def test_machine_balance_scales_comm(self):
        _, _, t_fast = self.setup_tables(GTX1080TI)
        _, _, t_slow = self.setup_tables(RTX2080TI)
        # Any communicating pair costs more on the low-balance machine
        # relative to its FLOPs.
        mat_fast = next(iter(t_fast.pair_tx.values()))
        mat_slow = next(iter(t_slow.pair_tx.values()))
        nz = mat_fast > 0
        if nz.any():
            ratio = mat_slow[nz] / mat_fast[nz]
            assert (ratio > 1.0).all()

    def test_nbytes_positive(self):
        _, _, tables = self.setup_tables()
        assert tables.nbytes() > 0


class TestMemoryTables:
    """`build_tables(memory=True)`: the frontier's second objective axis
    is built and cached with the cost tables."""

    def setup_instance(self):
        g = build_dag(4, [(0, 2), (1, 3)], param_mask=0b1010,
                      reduction_mask=0b0100)
        space = ConfigSpace.build(g, 8)
        return g, space, CostModel(GTX1080TI)

    def test_scalar_build_has_no_mem(self):
        g, space, cm = self.setup_instance()
        tables = cm.build_tables(g, space)
        assert tables.mem is None

    def test_mem_matches_memory_model(self):
        from repro.analysis.memory import MemoryModel
        g, space, cm = self.setup_instance()
        tables = cm.build_tables(g, space, memory=True)
        assert tables.mem is not None and set(tables.mem) == \
            set(g.node_names)
        mm = MemoryModel()
        for n in g.node_names:
            assert tables.mem[n].shape == (space.size(n),)
            assert tables.mem[n].dtype == np.float64
            assert np.array_equal(
                tables.mem[n], mm.node_bytes(g.node(n), space.configs(n)))

    def test_mem_counts_into_nbytes(self):
        g, space, cm = self.setup_instance()
        plain = cm.build_tables(g, space)
        with_mem = cm.build_tables(g, space, memory=True)
        assert with_mem.nbytes() > plain.nbytes()
        # The cost tables are unchanged by the memory flag.
        for n in plain.lc:
            assert np.array_equal(plain.lc[n], with_mem.lc[n])


class TestBuildStats:
    def test_cold_build_and_warm_hit_report_three_keys(self, tmp_path):
        """Both outcomes of the one build path report the same stats:
        seconds, cache outcome and table size."""
        from repro.core.tablecache import TableCache

        g = build_dag(4, [(0, 2), (1, 3)], param_mask=0b1010,
                      reduction_mask=0b0100)
        space = ConfigSpace.build(g, 8)
        cm = CostModel(GTX1080TI)
        ctx = RunContext(cache=TableCache(tmp_path))
        cold = cm.build_tables(g, space, ctx=ctx)
        warm = cm.build_tables(g, space, ctx=ctx)
        cells = float(CostModel.table_work_cells(g, space))
        for tables, hit in ((cold, 0.0), (warm, 1.0)):
            assert set(tables.build_stats) == {
                "build_seconds", "cache_hit", "cells"}
            assert tables.build_stats["cache_hit"] == hit
            assert tables.build_stats["cells"] == cells
            assert tables.build_stats["build_seconds"] >= 0.0
