"""Expert-designed parallelization strategies (paper Section IV).

* :func:`owt_strategy` — Krizhevsky's "one weird trick": data parallelism
  for convolutional layers, parameter parallelism (out-channel split) for
  fully-connected layers.  Used for AlexNet and InceptionV3.
* :func:`rnn_pipeline_expert` — the GNMT-style data+pipeline hybrid:
  RNN layers spread across device groups (the layer dim of the fused LSTM
  vertex), each group data-parallel; embedding/projection data-parallel.
* :func:`mesh_tf_transformer_expert` — the Mesh-TensorFlow hybrid for
  Transformer: batch split ``m``-way on every layer, model dims (vocab,
  heads, feed-forward hidden) split ``n``-way, ``m·n = p``.
* :func:`auto_expert_strategy` — dispatch on graph contents, matching the
  paper's per-benchmark choices.
"""

from __future__ import annotations

from ..core.exceptions import StrategyError
from ..core.graph import CompGraph
from ..core.strategy import Strategy
from ..obs.profile import profiled
from ._util import pow2_floor, split_dim

__all__ = [
    "owt_strategy",
    "rnn_pipeline_expert",
    "mesh_tf_transformer_expert",
    "auto_expert_strategy",
]

#: Layer kinds OWT treats as "convolutional" (data parallel).
_CONVISH = {"conv2d", "maxpool", "avgpool", "lrn", "batchnorm", "dropout",
            "concat"}


def _dp_config(op, p: int) -> tuple[int, ...]:
    cfg = [1] * op.rank
    cfg[op.dim_index("b")] = split_dim(op, "b", p)
    return tuple(cfg)


def owt_strategy(graph: CompGraph, p: int) -> Strategy:
    """One weird trick [Krizhevsky 2014] for CNNs.

    Convolutional layers (and their elementwise companions) use data
    parallelism; fully-connected layers switch to parameter parallelism by
    splitting the out-channel dim only — which, as Section IV-C notes,
    incurs the inter-FC all-gather that PaSE's alternating splits avoid.
    """
    assignment: dict[str, tuple[int, ...]] = {}
    for op in graph:
        if op.kind == "fc":
            cfg = [1] * op.rank
            out_axis = op.primary_output.axes[-1]
            cfg[op.dim_index(out_axis)] = split_dim(op, out_axis, p)
            assignment[op.name] = tuple(cfg)
        elif op.kind in ("softmax", "softmax_xent"):
            cfg = [1] * op.rank
            class_axis = op.primary_output.axes[-1]
            cfg[op.dim_index(class_axis)] = split_dim(op, class_axis, p)
            assignment[op.name] = tuple(cfg)
        elif op.kind in _CONVISH or op.kind.startswith(("act_", "ew_")):
            assignment[op.name] = _dp_config(op, p)
        else:
            raise StrategyError(f"OWT does not cover layer kind {op.kind!r}")
    return Strategy(assignment)


def rnn_pipeline_expert(graph: CompGraph, p: int) -> Strategy:
    """GNMT-style data+pipeline hybrid [Wu et al. 2016] for RNN LMs.

    The fused LSTM vertex splits its layer dim fully (one pipeline stage
    per layer group) and data-parallelizes the batch across the remaining
    devices; the embedding, projection, and softmax are data-parallel.
    """
    assignment: dict[str, tuple[int, ...]] = {}
    for op in graph:
        if op.kind == "lstm":
            layers = split_dim(op, "l", p)
            cfg = [1] * op.rank
            cfg[op.dim_index("l")] = layers
            cfg[op.dim_index("b")] = split_dim(op, "b", p // layers)
            assignment[op.name] = tuple(cfg)
        else:
            assignment[op.name] = _dp_config(op, p)
    return Strategy(assignment)


def mesh_tf_transformer_expert(graph: CompGraph, p: int,
                               model_split: int | None = None) -> Strategy:
    """The Mesh-TensorFlow hybrid [Shazeer et al. 2018] for Transformer.

    A 2-D mesh ``m x n`` with ``m·n = p``: the batch dim of every layer is
    split ``m``-way; the "model" dims — vocabulary (embedding, projection,
    softmax), attention heads, feed-forward hidden — are split ``n``-way.
    Default ``n`` is the largest power of two <= sqrt(p), the balanced
    mesh the paper's comparison uses.
    """
    if model_split is None:
        model_split = pow2_floor(max(1, int(p ** 0.5)))
    n = max(1, min(model_split, p))
    m = max(1, p // n)

    assignment: dict[str, tuple[int, ...]] = {}
    for op in graph:
        cfg = [1] * op.rank
        if op.has_dim("b") and op.resolve_dim("b") == "b":
            cfg[op.dim_index("b")] = split_dim(op, "b", m)
        if op.kind == "embedding":
            cfg[op.dim_index("v")] = split_dim(op, "v", n)
        elif op.kind == "attention":
            cfg[op.dim_index("h")] = split_dim(op, "h", n)
        elif op.kind == "feed_forward":
            cfg[op.dim_index("e")] = split_dim(op, "e", n)
        elif op.kind == "fc" and op.has_dim("v"):
            cfg[op.dim_index("v")] = split_dim(op, "v", n)
        elif op.kind in ("softmax", "softmax_xent") and op.has_dim("v"):
            cfg[op.dim_index("v")] = split_dim(op, "v", n)
        assignment[op.name] = tuple(cfg)
    return Strategy(assignment)


@profiled("baseline.expert")
def auto_expert_strategy(graph: CompGraph, p: int) -> Strategy:
    """Pick the expert strategy the paper uses for this kind of network.

    LSTM present -> GNMT data+pipeline; attention present -> Mesh-TF
    hybrid; otherwise OWT (CNNs/MLPs).
    """
    kinds = {op.kind for op in graph}
    if "lstm" in kinds:
        return rnn_pipeline_expert(graph, p)
    if "attention" in kinds:
        return mesh_tf_transformer_expert(graph, p)
    return owt_strategy(graph, p)
