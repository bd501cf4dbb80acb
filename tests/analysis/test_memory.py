"""Tests for memory-footprint estimation."""

import numpy as np
import pytest

from repro.analysis.memory import MemoryModel, strategy_memory
from repro.baselines import data_parallel_strategy
from repro.core.configs import ConfigSpace
from repro.core.strategy import Strategy
from repro.models import mlp, rnnlm


class TestMemoryModel:
    def test_serial_holds_everything(self):
        g = mlp(batch=16, hidden=(64,))
        mem = strategy_memory(g, Strategy.serial(g))
        fc1 = mem["fc1"]
        # weight(784*64) + bias(64), x3 for optimizer state, 4 B each.
        assert fc1.params == pytest.approx((784 * 64 + 64) * 3 * 4)
        assert fc1.activations > 0
        assert fc1.comm_buffers == 0.0  # no comm when serial

    def test_splitting_shrinks_footprint(self):
        g = mlp(batch=16, hidden=(64,))
        op = g.node("fc1")
        mm = MemoryModel()
        serial = mm.node_bytes(op, np.array([[1, 1, 1]]))[0]
        split = mm.node_bytes(op, np.array([[1, 4, 4]]))[0]
        assert split < serial

    def test_data_parallel_replicates_params(self):
        """Batch splits do not shrink parameter memory — the Section II
        point about data parallelism and large models."""
        g = mlp(batch=16, hidden=(64,))
        serial = strategy_memory(g, Strategy.serial(g))
        dp = strategy_memory(g, data_parallel_strategy(g, 4))
        assert dp["fc1"].params == serial["fc1"].params
        assert dp["fc1"].activations < serial["fc1"].activations

    def test_totals(self):
        g = mlp(batch=16, hidden=(64,))
        mem = strategy_memory(g, Strategy.serial(g))
        for nm in mem.values():
            assert nm.total == nm.params + nm.activations + nm.comm_buffers

    def test_replicating_projection_exceeds_11_gib(self):
        """Section II: an 800k-vocab RNNLM cannot replicate its projection
        on an 11 GiB device.  Every config that leaves the big weight
        whole (no v or d split) exceeds it, and every config that fits
        shards the weight."""
        g = rnnlm(vocab=800_000)
        proj = g.node("projection")
        configs = ConfigSpace.build(g, 32).configs("projection")
        nbytes = MemoryModel().node_bytes(proj, configs)
        shards = configs[:, proj.dim_index("v")] \
            * configs[:, proj.dim_index("d")] > 1
        fits = nbytes <= 11 * 2**30
        assert (~shards).any() and (nbytes[~shards] > 11 * 2**30).all()
        assert fits.any() and shards[fits].all()

    def test_node_bytes_matches_node_memory(self):
        """The vectorized per-config table (`node_bytes`, the frontier's
        second objective axis) agrees exactly with the per-strategy
        scalar path (`node_memory`) on every enumerated config."""
        g = rnnlm()
        space = ConfigSpace.build(g, 8)
        mm = MemoryModel()
        for name in g.node_names:
            op = g.node(name)
            configs = space.configs(name)
            table = mm.node_bytes(op, configs)
            assert table.shape == (space.size(name),)
            base = dict(Strategy.serial(g).assignment)
            for k in range(space.size(name)):
                base[name] = tuple(int(v) for v in configs[k])
                strat = Strategy(base)
                assert table[k] == mm.node_memory(g, strat, name).total

