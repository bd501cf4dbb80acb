"""Greedy locality-maximizing shard-to-device assignment (paper Section II).

Once a strategy fixes every node's configuration, each node's shards must
land on physical devices.  The paper observes that a greedy assignment
maximizing ``|A(v, d, φ) ∩ A(u, d, φ)|`` — placing each shard where the
largest share of its input bytes already lives — works well in practice;
this module implements exactly that, processing nodes in topological order
and scoring every (shard, device) pair by the input-block overlap with the
already-placed producers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.exceptions import SimulationError
from ..core.graph import CompGraph
from ..core.strategy import Strategy
from .blocks import block_overlap, shard_indices, tensor_blocks

__all__ = ["Placement", "edge_overlaps", "greedy_placement"]


@dataclass
class Placement:
    """Shard-to-device maps for every node of a parallelized graph.

    Attributes
    ----------
    devices:
        Node -> int64 array ``[P_v]`` of device ids, indexed by shard.
    shards:
        Node -> int64 array ``[P_v, d]`` of shard multi-indices.
    p:
        Total device count.
    overlaps:
        Edge -> ``(overlap [P_dst, P_src], src blocks, dst blocks)``, as
        `greedy_placement` scored the edge for the strategy it placed;
        the simulator reads them instead of computing them again.
    """

    devices: dict[str, np.ndarray]
    shards: dict[str, np.ndarray]
    p: int
    overlaps: dict = field(default_factory=dict, repr=False)

    def device_of(self, node: str, shard: int) -> int:
        return int(self.devices[node][shard])

    def validate(self, graph: CompGraph) -> None:
        for op in graph:
            if op.name not in self.devices:
                raise SimulationError(f"node {op.name!r} has no placement")
            dev = self.devices[op.name]
            if len(np.unique(dev)) != dev.shape[0]:
                raise SimulationError(f"node {op.name!r} maps two shards to one device")
            if dev.min(initial=0) < 0 or dev.max(initial=0) >= self.p:
                raise SimulationError(f"node {op.name!r} uses devices outside 0..{self.p - 1}")


def edge_overlaps(graph: CompGraph, strategy: Strategy,
                  shards: dict[str, np.ndarray], e,
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(overlap [P_dst, P_src], src blocks, dst blocks)`` of edge ``e``:
    the elements of each source shard's output block that each
    destination shard's input block covers."""
    src_op = graph.node(e.src)
    dst_op = graph.node(e.dst)
    src_blocks = tensor_blocks(src_op, src_op.outputs[e.src_port],
                               strategy[e.src], shards[e.src])
    dst_blocks = tensor_blocks(dst_op, dst_op.inputs[e.dst_port],
                               strategy[e.dst], shards[e.dst])
    return block_overlap(dst_blocks, src_blocks), src_blocks, dst_blocks


def greedy_placement(graph: CompGraph, strategy: Strategy, p: int) -> Placement:
    """Assign every shard of every node to a device.

    Nodes are processed in topological order.  A node with no placed
    producers takes devices ``0..P_v-1`` in shard order; otherwise each
    (shard, device) pair is scored by the total input bytes of that shard
    already resident on that device, and pairs are committed greedily in
    descending score.
    """
    devices: dict[str, np.ndarray] = {}
    shards: dict[str, np.ndarray] = {}
    overlaps: dict = {}

    for name in graph.topological_order():
        idx = shard_indices(strategy[name])
        n_shards = idx.shape[0]
        if n_shards > p:
            raise SimulationError(
                f"node {name!r}: {n_shards} shards exceed {p} devices")
        shards[name] = idx

        score = np.zeros((n_shards, p), dtype=np.float64)
        for e in graph.in_edges(name):
            if e.src not in devices:
                continue
            overlaps[e] = edge_overlaps(graph, strategy, shards, e)
            np.add.at(score.T, devices[e.src], overlaps[e][0].T)

        assigned = np.full(n_shards, -1, dtype=np.int64)
        if not score.any():
            assigned[:] = np.arange(n_shards)
        else:
            taken = np.zeros(p, dtype=bool)
            # Commit (shard, device) pairs in descending overlap order.
            order = np.argsort(score, axis=None)[::-1]
            placed = 0
            for flat in order:
                s, d = divmod(int(flat), p)
                if assigned[s] >= 0 or taken[d]:
                    continue
                assigned[s] = d
                taken[d] = True
                placed += 1
                if placed == n_shards:
                    break
            # Zero-score leftovers: lowest free devices.
            if placed < n_shards:
                free = np.flatnonzero(~taken)
                holes = np.flatnonzero(assigned < 0)
                assigned[holes] = free[: holes.shape[0]]
        devices[name] = assigned

    return Placement(devices=devices, shards=shards, p=p, overlaps=overlaps)
