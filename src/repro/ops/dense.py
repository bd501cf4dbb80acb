"""Fully-connected (GEMM) layers and friends."""

from __future__ import annotations

from typing import Mapping, Sequence

from ..core.dims import Dim
from ..core.tensors import TensorSpec
from .base import OpSpec

__all__ = ["FullyConnected", "FeedForward"]


def FullyConnected(
    name: str,
    *,
    batch: int,
    in_dim: int,
    out_dim: int,
    seq: int | None = None,
    names: Mapping[str, str] | None = None,
    in_factors: Sequence[int] | None = None,
    bias: bool = True,
) -> OpSpec:
    """A fully-connected layer ``out[b,(s),n] = Σ_c in[b,(s),c] · W[c,n]``.

    Iteration space ``(b, [s,] n, c)`` with ``c`` contracted.  ``names``
    optionally renames the canonical dims — e.g. the RNNLM projection layer
    uses ``{"n": "v", "c": "d"}`` so reports show the paper's ``bsvd``
    labels (Table II).

    ``in_factors`` consumes a *flattened* multi-axis input (the classic
    conv-to-FC transition) without a reshape node: the input tensor keeps
    the producer's factored shape, its leading factor follows the split of
    the contracted dim ``c`` (channel-major flattening) and the remaining
    factors stay unsplit.  ``prod(in_factors)`` must equal ``in_dim``.
    """
    label = {"b": "b", "s": "s", "n": "n", "c": "c"}
    label.update(names or {})
    dims = [Dim(label["b"], batch)]
    if seq is not None:
        dims.append(Dim(label["s"], seq))
    dims += [Dim(label["n"], out_dim), Dim(label["c"], in_dim)]
    lead = (label["b"],) + ((label["s"],) if seq is not None else ())

    aliases: dict[str, tuple[str | None, int]] = {}
    if in_factors is None:
        in_axes = lead + (label["c"],)
    else:
        prod = 1
        for f in in_factors:
            prod *= int(f)
        if prod != in_dim:
            raise ValueError(
                f"FC {name!r}: prod(in_factors)={prod} != in_dim={in_dim}")
        factor_axes = []
        for i, f in enumerate(in_factors):
            axis = f"{label['c']}_f{i}"
            aliases[axis] = (label["c"] if i == 0 else None, int(f))
            factor_axes.append(axis)
        in_axes = lead + tuple(factor_axes)

    inputs = {
        "in": TensorSpec(axes=in_axes),
        "w": TensorSpec(axes=(label["c"], label["n"]), is_param=True),
    }
    if bias:
        inputs["bias"] = TensorSpec(axes=(label["n"],), is_param=True)
    return OpSpec(
        name=name,
        kind="fc",
        dims=tuple(dims),
        inputs=inputs,
        outputs={"out": TensorSpec(axes=lead + (label["n"],))},
        reduction_dims=frozenset({label["c"]}),
        flops_per_point=2.0,
        aliases=aliases,
    )


def FeedForward(
    name: str,
    *,
    batch: int,
    seq: int,
    model_dim: int,
    hidden: int,
) -> OpSpec:
    """A Transformer position-wise feed-forward block, fused.

    ``out[b,s,·] = W2[e,·] · act(W1[d,e] · in[b,s,d])`` over iteration
    space ``(b, s, d, e)`` — the paper's ``bsde`` (Table II).  Both matrix
    dims are contracted: splitting the hidden dim ``e`` (the
    Megatron-style tensor-parallel pattern) or the input model dim ``d``
    leaves partial sums that must be combined.  The output model-width
    axis is the fixed alias ``do`` (activations stay full-width across the
    tensor-parallel group, like the attention block).
    """
    return OpSpec(
        name=name,
        kind="feed_forward",
        dims=(Dim("b", batch), Dim("s", seq), Dim("d", model_dim), Dim("e", hidden)),
        inputs={
            "in": TensorSpec(axes=("b", "s", "d")),
            "w": TensorSpec(axes=("d", "e"), is_param=True, scale=2.0),
        },
        outputs={"out": TensorSpec(axes=("b", "s", "do"))},
        reduction_dims=frozenset({"d", "e"}),
        flops_per_point=4.0,  # two GEMMs x 2 FLOPs per MAC
        aliases={"do": (None, model_dim)},
    )
