"""Unit and property tests for the analytic cost model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.configs import ConfigSpace
from repro.core.costmodel import CostModel, allreduce_bytes
from repro.core.machine import GTX1080TI, RTX2080TI, UNIT_BALANCE, MachineSpec
from repro.core.tensors import DTYPE_BYTES
from repro.runtime import RunContext
from tests.conftest import build_dag, make_test_op
from tests.core.test_tensors import gemm_op


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
        single = CostModel(UNIT_BALANCE).edge_bytes_matrix(
            g, g.edges[0], space.configs("a"), space.configs("b"))
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


class TestParallelBuild:
    def setup_instance(self):
        g = build_dag(4, [(0, 2), (1, 3)], param_mask=0b1010,
                      reduction_mask=0b0100)
        space = ConfigSpace.build(g, 8)
        return g, space, CostModel(GTX1080TI)

    def test_parallel_bit_identical(self, monkeypatch):
        """The auto-selected pooled build must produce exactly the
        serial arrays — not merely allclose (float op order is
        preserved)."""
        import repro.core.costmodel as costmodel
        monkeypatch.setattr(costmodel, "PARALLEL_THRESHOLD_CELLS", 0)
        monkeypatch.setattr(costmodel.os, "cpu_count", lambda: 2)
        g, space, cm = self.setup_instance()
        serial = cm.build_tables(g, space)
        par = cm.build_tables(g, space, ctx=RunContext(jobs=2))
        assert par.build_stats["jobs"] == 2.0
        assert par.backend == "threads"
        assert set(serial.lc) == set(par.lc)
        assert set(serial.pair_tx) == set(par.pair_tx)
        for n in serial.lc:
            assert np.array_equal(serial.lc[n], par.lc[n])
        for k in serial.pair_tx:
            assert np.array_equal(serial.pair_tx[k], par.pair_tx[k])

    def test_threads_bit_identical(self):
        g, space, cm = self.setup_instance()
        serial = cm.build_tables(g, space)
        thr = cm.build_tables(g, space, ctx=RunContext(jobs="threads:2"))
        assert thr.build_stats["jobs"] == 2.0
        assert thr.backend == "threads"
        for n in serial.lc:
            assert np.array_equal(serial.lc[n], thr.lc[n])
        for k in serial.pair_tx:
            assert np.array_equal(serial.pair_tx[k], thr.pair_tx[k])

    def test_small_problem_stays_serial(self):
        from repro.core.costmodel import PARALLEL_THRESHOLD_CELLS
        g, space, cm = self.setup_instance()
        assert CostModel.table_work_cells(g, space) < \
            PARALLEL_THRESHOLD_CELLS
        tables = cm.build_tables(g, space, ctx=RunContext(jobs=4))
        assert tables.build_stats["jobs"] == 1.0

    def test_negative_jobs_rejected(self):
        g, space, cm = self.setup_instance()
        with pytest.raises(ValueError):
            cm.build_tables(g, space, ctx=RunContext(jobs=-1))

    def test_processes_spelling_rejected(self):
        g, space, cm = self.setup_instance()
        with pytest.raises(ValueError, match="'serial'.*'auto'/'threads'"):
            cm.build_tables(g, space, ctx=RunContext(jobs="processes:2"))

    def test_jobs_none_is_serial(self):
        g, space, cm = self.setup_instance()
        tables = cm.build_tables(g, space)
        assert tables.build_stats["jobs"] == 1.0
        assert tables.build_stats["cache_hit"] == 0.0
        assert tables.build_stats["build_seconds"] >= 0.0
        assert tables.build_stats["cells"] == \
            float(CostModel.table_work_cells(g, space))


class TestMemoryTables:
    """`build_tables(memory=True)`: the frontier's second objective axis
    rides the same jobs/cache data plane as the cost tables."""

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

    def test_all_backends_bit_identical(self, monkeypatch):
        import repro.core.costmodel as costmodel
        monkeypatch.setattr(costmodel, "PARALLEL_THRESHOLD_CELLS", 0)
        g, space, cm = self.setup_instance()
        serial = cm.build_tables(g, space, memory=True)
        thr = cm.build_tables(g, space, memory=True,
                              ctx=RunContext(jobs="threads:2"))
        assert set(thr.mem) == set(serial.mem)
        for n in serial.mem:
            assert np.array_equal(serial.mem[n], thr.mem[n])
        # The cost tables are unchanged by the memory flag.
        plain = cm.build_tables(g, space)
        for n in plain.lc:
            assert np.array_equal(plain.lc[n], serial.lc[n])

    def test_mem_counts_into_nbytes(self):
        g, space, cm = self.setup_instance()
        plain = cm.build_tables(g, space)
        with_mem = cm.build_tables(g, space, memory=True)
        assert with_mem.nbytes() > plain.nbytes()
