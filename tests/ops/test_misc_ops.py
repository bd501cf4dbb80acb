"""Tests for normalization, activation, softmax, and structural ops."""

import numpy as np
import pytest

from repro.core.exceptions import GraphError
from repro.ops import (
    Activation,
    BatchNorm,
    Concat,
    Dropout,
    ElementwiseBinary,
    LayerNorm,
    LocalResponseNorm,
    Softmax,
    SoftmaxCrossEntropy,
)


class TestNorms:
    def test_lrn_no_params(self):
        op = LocalResponseNorm("l", batch=4, channels=8, hw=(8, 8))
        assert not op.has_params

    def test_batchnorm_params(self):
        op = BatchNorm("bn", batch=4, channels=8, hw=(8, 8))
        assert op.param_volume() == 16  # gamma+beta via scale=2

    def test_layernorm_moment_sync(self):
        op = LayerNorm("ln", batch=4, seq=8, dim=16)
        no_split = op.extra_comm_bytes(np.array([[1, 1, 1]]))
        d_split = op.extra_comm_bytes(np.array([[1, 1, 4]]))
        b_split = op.extra_comm_bytes(np.array([[4, 1, 1]]))
        assert no_split[0] == 0.0 and b_split[0] == 0.0
        assert d_split[0] > 0


class TestElementwise:
    def test_activation(self):
        op = Activation("a", dims=[("b", 4), ("n", 8)], fn="tanh")
        assert op.kind == "act_tanh"
        assert op.flops == 2 * 4 * 8  # 1 flop/pt, no params -> 2x

    def test_dropout(self):
        op = Dropout("d", dims=[("b", 4), ("n", 8)])
        assert op.inputs["in"].shape(op) == (4, 8)

    def test_binary_ports(self):
        op = ElementwiseBinary("add", dims=[("b", 4), ("n", 8)])
        assert set(op.inputs) == {"in0", "in1"}
        assert op.kind == "ew_add"


class TestSoftmax:
    def test_class_split_sync(self):
        op = Softmax("s", batch=8, classes=100)
        none = op.extra_comm_bytes(np.array([[8, 1]]))
        split = op.extra_comm_bytes(np.array([[1, 4]]))
        assert none[0] == 0.0 and split[0] > 0

    def test_seq_variant(self):
        op = SoftmaxCrossEntropy("s", batch=8, classes=100, seq=16,
                                 class_name="v")
        assert op.dim_names == ("b", "s", "v")
        assert op.kind == "softmax_xent"

    def test_sync_scales_with_rows(self):
        op = Softmax("s", batch=8, classes=100)
        full_rows = op.extra_comm_bytes(np.array([[1, 4]]))
        shard_rows = op.extra_comm_bytes(np.array([[8, 4]]))
        assert full_rows[0] > shard_rows[0]


class TestConcat:
    def test_cnn_variant(self):
        op = Concat("c", parts=[3, 5], batch=4, hw=(8, 8))
        assert op.dim_size("c") == 8
        assert op.inputs["in0"].shape(op) == (4, 3, 8, 8)
        assert op.inputs["in1"].shape(op) == (4, 5, 8, 8)
        assert op.outputs["out"].shape(op) == (4, 8, 8, 8)

    def test_parts_follow_channel_split(self):
        op = Concat("c", parts=[4, 4], batch=4, hw=(8, 8))
        splits = op.inputs["in0"].splits(op, np.array([[1, 2, 1, 1]]))
        assert splits.tolist() == [[1, 2, 1, 1]]

    def test_seq_variant(self):
        op = Concat("c", parts=[3, 5], batch=4, hw=None, axis_name="d")
        assert op.dim_names == ("b", "d")


class TestEmbeddingOp:
    def test_structure(self):
        from repro.ops import Embedding
        op = Embedding("e", batch=4, vocab=1000, dim=16, seq=8)
        assert op.dim_names == ("b", "s", "d", "v")
        assert op.fwd_flops == 2.0 * 4 * 8 * 16
        assert op.inputs["w"].sparse_grad_elements == 4 * 8 * 16

    def test_vocab_split_alltoall(self):
        from repro.ops import Embedding
        op = Embedding("e", batch=4, vocab=1000, dim=16, seq=8)
        none = op.extra_comm_bytes(np.array([[4, 1, 1, 1]]))
        vsplit = op.extra_comm_bytes(np.array([[1, 1, 1, 4]]))
        assert none[0] == 0.0 and vsplit[0] > 0

    def test_alltoall_smaller_than_output(self):
        """The v-split exchange moves the produced share, not the full
        activation (the one-hot-matmul model would overcharge m-fold)."""
        from repro.core.tensors import DTYPE_BYTES
        from repro.ops import Embedding
        op = Embedding("e", batch=4, vocab=1000, dim=16, seq=8)
        vol = op.extra_comm_bytes(np.array([[1, 1, 1, 4]]))[0]
        out_bytes = op.outputs["out"].volume(op) * DTYPE_BYTES
        assert vol < out_bytes
