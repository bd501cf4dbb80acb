"""Tests for the model zoo: every builder yields a valid, searchable graph."""

import pytest

from repro.core.configs import ConfigSpace
from repro.core.costmodel import CostModel
from repro.core.dp import find_best_strategy
from repro.core.machine import GTX1080TI
from repro.core.sequencer import SequencedGraph, breadth_first_seq, generate_seq
from repro.models import (
    BENCHMARKS,
    alexnet,
    densenet,
    inception_v3,
    mlp,
    rnnlm,
    transformer,
)

ALL_BUILDERS = {
    "mlp": lambda: mlp(),
    "alexnet": lambda: alexnet(),
    "alexnet_bare": lambda: alexnet(with_aux=False),
    "inception": lambda: inception_v3(),
    "inception_bn": lambda: inception_v3(with_bn=True),
    "rnnlm": lambda: rnnlm(),
    "transformer": lambda: transformer(layers=2),
    "transformer_bare": lambda: transformer(layers=2, residuals=False),
    "densenet": lambda: densenet(block_layers=4),
}


@pytest.mark.parametrize("name", list(ALL_BUILDERS))
def test_builds_and_validates(name):
    g = ALL_BUILDERS[name]()
    g.validate()
    assert len(g) >= 4
    assert g.stats()["total_flops"] > 0


@pytest.mark.parametrize("name", list(ALL_BUILDERS))
def test_searchable_at_small_p(name):
    g = ALL_BUILDERS[name]()
    space = ConfigSpace.build(g, 2)
    tables = CostModel(GTX1080TI).build_tables(g, space)
    res = find_best_strategy(g, space, tables)
    res.strategy.validate(g, 2)
    assert res.cost > 0


def test_benchmark_registry():
    assert set(BENCHMARKS) == {"alexnet", "inception_v3", "rnnlm", "transformer"}
    for fn in BENCHMARKS.values():
        assert callable(fn)


class TestAlexNet:
    def test_path_graph(self):
        g = alexnet()
        assert all(g.degree(n) <= 2 for n in g.node_names)

    def test_layer_plan(self):
        g = alexnet()
        conv1 = g.node("conv1")
        assert conv1.dim_size("h") == 55
        fc1 = g.node("fc1")
        assert fc1.dim_size("c") == 256 * 6 * 6

    def test_batch_paper_default(self):
        assert alexnet().node("conv1").dim_size("b") == 128


class TestInception:
    def test_section_3c_shape(self):
        """Paper: mostly sparse, ~12 high-degree nodes, GENERATESEQ keeps
        dependent sets tiny while BF blows up."""
        g = inception_v3()
        stats = g.stats()
        assert stats["nodes_degree_ge_5"] == 12
        gs = SequencedGraph.build(g, generate_seq(g))
        bf = SequencedGraph.build(g, breadth_first_seq(g))
        assert gs.max_dependent_size <= 3
        assert bf.max_dependent_size >= 8

    def test_module_channel_plan(self):
        g = inception_v3()
        fc = g.node("fc")
        assert fc.dim_size("c") == 2048  # module E output channels

    def test_bn_variant_grows(self):
        assert len(inception_v3(with_bn=True)) > 2 * len(inception_v3())


class TestRNNLM:
    def test_single_lstm_vertex_path_graph(self):
        g = rnnlm()
        assert len(g) == 4
        assert g.node("lstm").rank == 5
        assert all(g.degree(n) <= 2 for n in g.node_names)


class TestTransformer:
    def test_encoder_output_fans_out(self):
        g = transformer(layers=4)
        degrees = {n: g.degree(n) for n in g.node_names}
        hub, deg = max(degrees.items(), key=lambda kv: kv[1])
        assert deg >= 4 + 1  # feeds every decoder cross-attention
        assert "enc3" in hub  # the final encoder sublayer

    def test_layer_scaling(self):
        assert len(transformer(layers=4)) > len(transformer(layers=2))

    def test_requires_divisible_heads(self):
        with pytest.raises(ValueError):
            transformer(model_dim=100, heads=3)


class TestDenseNet:
    def test_dense_under_any_ordering(self):
        """Section V: no ordering helps on uniformly dense graphs."""
        g = densenet(block_layers=6)
        gs = SequencedGraph.build(g, generate_seq(g))
        assert gs.max_dependent_size >= 4

    def test_density_grows_with_depth(self):
        small = densenet(block_layers=3)
        big = densenet(block_layers=7)
        m = lambda g: SequencedGraph.build(g, generate_seq(g)).max_dependent_size
        assert m(big) > m(small)


class TestExtensionModels:
    def test_vgg_path_graph(self):
        from repro.models import vgg16
        g = vgg16()
        g.validate()
        assert all(g.degree(n) <= 2 for n in g.node_names)
        assert g.node("fc1").dim_size("c") == 512 * 7 * 7

    def test_owt_covers_extension_cnns(self):
        from repro.baselines import owt_strategy
        from repro.models import vgg16
        g = vgg16()
        owt_strategy(g, 8).validate(g, 8)


class TestTransformerWiring:
    def test_cross_attention_memory_edges(self):
        from repro.models import transformer
        g = transformer(layers=3)
        mem_edges = [e for e in g.edges if e.dst_port == "memory"]
        assert len(mem_edges) == 3
        assert len({e.src for e in mem_edges}) == 1  # all from enc output

    def test_residual_wiring(self):
        from repro.models import transformer
        g = transformer(layers=2)
        res = g.node("enc0_a_res")
        srcs = {e.src for e in g.in_edges("enc0_a_res")}
        assert srcs == {"src_embedding", "enc0_attn"}
