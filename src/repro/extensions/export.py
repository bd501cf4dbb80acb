"""Export found strategies as sharding annotations.

Section II: "frameworks such as GShard can take user-specified
parallelization strategies, such as the ones computed by our approach, and
automatically perform efficient device assignment by simply aligning the
sharding decisions of adjacent layers."  This module emits that hand-off
format: per node, the iteration-space splits plus the induced per-tensor
axis shardings (the part a GShard/Mesh-TensorFlow integration consumes).
"""

from __future__ import annotations

import json

import numpy as np

from ..core.graph import CompGraph
from ..core.strategy import Strategy

__all__ = ["sharding_spec", "to_gshard_json"]


def sharding_spec(graph: CompGraph, strategy: Strategy) -> dict[str, dict]:
    """Structured sharding annotations for every node and tensor port.

    Returns, per node::

        {
          "kind": ...,
          "iteration_splits": {dim: factor, ...},       # non-trivial only
          "tensors": {port: {"shape": [...], "splits": [...],
                             "replication": int}, ...},
          "devices": int,
        }
    """
    out: dict[str, dict] = {}
    for op in graph:
        cfg = np.asarray(strategy[op.name], dtype=np.int64).reshape(1, -1)
        splits = {d.name: int(c) for d, c in zip(op.dims, cfg[0]) if c > 1}
        tensors: dict[str, dict] = {}
        for port, spec in {**op.inputs, **op.outputs}.items():
            tensors[port] = {
                "shape": list(spec.shape(op)),
                "splits": [int(s) for s in spec.splits(op, cfg)[0]],
                "replication": int(spec.replication(op, cfg)[0]),
                "param": spec.is_param,
            }
        out[op.name] = {
            "kind": op.kind,
            "iteration_splits": splits,
            "tensors": tensors,
            "devices": int(np.prod(cfg[0])),
        }
    return out


def to_gshard_json(graph: CompGraph, strategy: Strategy) -> str:
    """JSON rendering of :func:`sharding_spec`."""
    return json.dumps(sharding_spec(graph, strategy), indent=2,
                      sort_keys=True)
