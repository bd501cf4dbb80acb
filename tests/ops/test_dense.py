"""Tests for fully-connected / feed-forward operators."""

import numpy as np
import pytest

from repro.ops import FullyConnected
from repro.ops.dense import FeedForward


class TestFullyConnected:
    def test_iteration_space(self):
        fc = FullyConnected("fc", batch=32, in_dim=256, out_dim=512)
        assert fc.dim_names == ("b", "n", "c")
        assert fc.dim_sizes == (32, 512, 256)
        assert fc.reduction_dims == {"c"}

    def test_flops(self):
        fc = FullyConnected("fc", batch=2, in_dim=3, out_dim=5, bias=False)
        assert fc.fwd_flops == 2 * 2 * 3 * 5
        assert fc.flops == 3 * fc.fwd_flops  # has params

    def test_seq_variant(self):
        fc = FullyConnected("fc", batch=4, seq=10, in_dim=8, out_dim=6)
        assert fc.dim_names == ("b", "s", "n", "c")
        assert fc.outputs["out"].shape(fc) == (4, 10, 6)

    def test_renamed_dims(self):
        fc = FullyConnected("fc", batch=4, seq=10, in_dim=8, out_dim=6,
                            names={"n": "v", "c": "d"})
        assert fc.dim_names == ("b", "s", "v", "d")
        assert fc.reduction_dims == {"d"}

    def test_param_volume(self):
        fc = FullyConnected("fc", batch=2, in_dim=3, out_dim=5)
        assert fc.param_volume() == 3 * 5 + 5  # weight + bias

    def test_in_factors_shape(self):
        fc = FullyConnected("fc", batch=2, in_dim=24, out_dim=5,
                            in_factors=(6, 2, 2))
        assert fc.inputs["in"].shape(fc) == (2, 6, 2, 2)

    def test_in_factors_follow_c_split(self):
        fc = FullyConnected("fc", batch=2, in_dim=24, out_dim=5,
                            in_factors=(6, 2, 2))
        splits = fc.inputs["in"].splits(fc, np.array([[1, 1, 3]]))
        assert splits.tolist() == [[1, 3, 1, 1]]

    def test_in_factors_must_multiply(self):
        with pytest.raises(ValueError, match="in_factors"):
            FullyConnected("fc", batch=2, in_dim=24, out_dim=5,
                           in_factors=(5, 2, 2))

    def test_no_bias(self):
        fc = FullyConnected("fc", batch=2, in_dim=3, out_dim=5, bias=False)
        assert fc.param_ports == ("w",)


class TestFeedForward:
    def test_space(self):
        ff = FeedForward("ff", batch=8, seq=16, model_dim=64, hidden=256)
        assert ff.dim_names == ("b", "s", "d", "e")
        assert ff.reduction_dims == {"d", "e"}

    def test_output_width_fixed(self):
        ff = FeedForward("ff", batch=8, seq=16, model_dim=64, hidden=256)
        assert ff.outputs["out"].shape(ff) == (8, 16, 64)
        # Output never splits along the model axis.
        splits = ff.outputs["out"].splits(ff, np.array([[1, 1, 4, 4]]))
        assert splits.tolist() == [[1, 1, 1]]

    def test_param_volume_two_matrices(self):
        ff = FeedForward("ff", batch=8, seq=16, model_dim=64, hidden=256)
        assert ff.param_volume() == 2 * 64 * 256

    def test_flops(self):
        ff = FeedForward("ff", batch=2, seq=3, model_dim=4, hidden=5)
        assert ff.fwd_flops == 4.0 * 2 * 3 * 4 * 5

    def test_hidden_split_shards_params_batch_replicates(self):
        ff = FeedForward("ff", batch=8, seq=16, model_dim=64, hidden=256)
        w = ff.inputs["w"]
        # e-split shards the weights -> no gradient replication group.
        assert w.replication(ff, np.array([[1, 1, 1, 4]])).tolist() == [1]
        assert w.shard_volume(ff, np.array([[1, 1, 1, 4]]))[0] == \
            pytest.approx(w.volume(ff) / 4)
        # b-split replicates the weights across the batch groups.
        assert w.replication(ff, np.array([[8, 1, 1, 1]])).tolist() == [8]
