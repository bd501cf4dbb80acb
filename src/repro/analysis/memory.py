"""Per-device memory-footprint estimation for parallelization strategies.

Section II of the paper argues that minimizing the training-time objective
*indirectly* minimizes memory: per-device footprint is (i) parameter +
activation shards, which shrink with the layer's device count, plus (ii)
communication buffers, proportional to the communication volume the
objective already minimizes.  This module makes that claim measurable,
including its corollary: a configuration that replicates a big layer's
parameters can exceed a device's capacity (the reason pure data
parallelism simply cannot train large models, Section I).

The estimate per node and device:

* parameters: largest parameter shard (+ the same again for gradients and
  `DEFAULT_OPTIMIZER_STATE_FACTOR` x for momentum/Adam state);
* activations: input + output shards (training keeps activations for the
  backward pass);
* communication buffers: the layer's internal communication bytes plus its
  edge-transfer bytes under the strategy.

One formula prices every path: `MemoryModel.node_bytes` vectorized over
a node's configuration rows.  The frontier's memory tables, the table
builds and `strategy_memory`'s per-part breakdown
(`MemoryModel.node_memory`, the same code on one row) all call it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.costmodel import CostModel
from ..core.graph import CompGraph
from ..core.machine import UNIT_BALANCE
from ..core.strategy import Strategy
from ..core.tensors import DTYPE_BYTES
from ..ops.base import OpSpec

__all__ = ["MemoryModel", "NodeMemory", "strategy_memory"]

#: Extra copies of every parameter shard held by the optimizer
#: (gradient + momentum for SGD-with-momentum).
DEFAULT_OPTIMIZER_STATE_FACTOR = 2.0


@dataclass(frozen=True)
class NodeMemory:
    """Worst-device memory bytes of one node under one configuration."""

    node: str
    params: float
    activations: float
    comm_buffers: float

    @property
    def total(self) -> float:
        return self.params + self.activations + self.comm_buffers


class MemoryModel:
    """Estimates worst-device memory per node, vectorized over configs."""

    def __init__(self) -> None:
        # Communication volumes reuse the cost model's byte accounting;
        # the machine balance is irrelevant for bytes, so unit balance.
        self._cm = CostModel(UNIT_BALANCE)

    def _parts(self, op: OpSpec, configs: np.ndarray,
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Params, activations and comm-buffer bytes per configuration."""
        configs = np.asarray(configs, dtype=np.int64)
        params = np.zeros(configs.shape[:-1], dtype=np.float64)
        acts = np.zeros(configs.shape[:-1], dtype=np.float64)
        for spec in op.inputs.values():
            shard = spec.shard_volume(op, configs) * DTYPE_BYTES
            if spec.is_param:
                params += shard * (1.0 + DEFAULT_OPTIMIZER_STATE_FACTOR)
            else:
                acts += shard
        for spec in op.outputs.values():
            acts += spec.shard_volume(op, configs) * DTYPE_BYTES
        return params, acts, self._cm.layer_comm_bytes(op, configs)

    def node_bytes(self, op: OpSpec, configs: np.ndarray) -> np.ndarray:
        """Worst-device bytes for each configuration ``[K, d] -> [K]``."""
        params, acts, comm = self._parts(op, configs)
        return params + acts + comm

    def node_memory(self, graph: CompGraph, strategy: Strategy,
                    node: str) -> NodeMemory:
        """`node_bytes`' three parts for the strategy's config of ``node``."""
        params, acts, comm = self._parts(
            graph.node(node), np.reshape(strategy[node], (1, -1)))
        return NodeMemory(node=node, params=float(params[0]),
                          activations=float(acts[0]),
                          comm_buffers=float(comm[0]))


def strategy_memory(graph: CompGraph,
                    strategy: Strategy) -> dict[str, NodeMemory]:
    """Per-node worst-device memory of a complete strategy.

    The per-device total is (approximately) the sum over nodes, since a
    training step keeps every layer's activations live until its backward
    pass.
    """
    mm = MemoryModel()
    return {n: mm.node_memory(graph, strategy, n) for n in graph.node_names}
