"""Unit tests for the computation-graph container."""

import pytest

from repro.core.exceptions import GraphError
from repro.core.graph import CompGraph, Edge
from tests.conftest import build_dag, make_test_op


class TestConstruction:
    def test_duplicate_node(self):
        g = CompGraph([make_test_op("a")])
        with pytest.raises(GraphError, match="duplicate"):
            g.add_node(make_test_op("a"))

    def test_unknown_endpoint(self):
        g = CompGraph([make_test_op("a")])
        with pytest.raises(GraphError, match="unknown node"):
            g.add_edge(Edge("a", "out", "zzz", "in0"))

    def test_self_loop(self):
        g = CompGraph([make_test_op("a")])
        with pytest.raises(GraphError, match="self-loop"):
            g.add_edge(Edge("a", "out", "a", "in0"))

    def test_unknown_ports(self):
        g = CompGraph([make_test_op("a"), make_test_op("b")])
        with pytest.raises(GraphError, match="output port"):
            g.add_edge(Edge("a", "nope", "b", "in0"))
        with pytest.raises(GraphError, match="input port"):
            g.add_edge(Edge("a", "out", "b", "nope"))

    def test_param_port_rejected(self):
        g = CompGraph([make_test_op("a"),
                       make_test_op("b", with_param=True)])
        with pytest.raises(GraphError, match="parameter port"):
            g.add_edge(Edge("a", "out", "b", "w"))

    def test_shape_mismatch(self):
        g = CompGraph([make_test_op("a", batch=4),
                       make_test_op("b", batch=8)])
        with pytest.raises(GraphError, match="shape mismatch"):
            g.add_edge(Edge("a", "out", "b", "in0"))


class TestQueries:
    def test_neighbors_undirected(self, diamond):
        assert set(diamond.neighbors("n0")) == {"n1", "n2"}
        assert set(diamond.neighbors("n3")) == {"n1", "n2"}
        assert diamond.degree("n0") == 2

    def test_neighbors_deduplicated(self):
        g = CompGraph([make_test_op("a"), make_test_op("b", n_in=2)])
        g.add_edge(Edge("a", "out", "b", "in0"))
        g.add_edge(Edge("a", "out", "b", "in1"))
        assert g.neighbors("a") == ("b",)
        assert len(g.out_edges("a")) == 2

    def test_len_iter_contains(self, chain3):
        assert len(chain3) == 3
        assert "n0" in chain3 and "zzz" not in chain3
        assert [op.name for op in chain3] == ["n0", "n1", "n2"]

    def test_unknown_node_lookup(self, chain3):
        with pytest.raises(GraphError):
            chain3.node("missing")


class TestStructure:
    def test_topological_order(self, diamond):
        order = diamond.topological_order()
        pos = {n: i for i, n in enumerate(order)}
        for e in diamond.edges:
            assert pos[e.src] < pos[e.dst]

    def test_cycle_detection(self):
        g = CompGraph([make_test_op("a", n_in=1), make_test_op("b", n_in=1)])
        g.add_edge(Edge("a", "out", "b", "in0"))
        g.add_edge(Edge("b", "out", "a", "in0"))
        with pytest.raises(GraphError, match="cycle"):
            g.topological_order()

    def test_weak_connectivity(self, diamond):
        assert diamond.is_weakly_connected()
        g = CompGraph([make_test_op("a"), make_test_op("b")])
        assert not g.is_weakly_connected()
        assert len(g.weakly_connected_components()) == 2

    def test_validate(self, diamond):
        diamond.validate()
        g = CompGraph([make_test_op("a"), make_test_op("b")])
        with pytest.raises(GraphError, match="connected"):
            g.validate()


class TestExport:
    def test_stats(self, diamond):
        s = diamond.stats()
        assert s["nodes"] == 4 and s["edges"] == 4
        assert s["max_degree"] == 2
        assert s["total_flops"] > 0

    def test_stats_counts_high_degree(self):
        g = build_dag(8, [(0, 2), (0, 3), (0, 4), (0, 5), (0, 6)])
        assert g.stats()["nodes_degree_ge_5"] >= 1
