"""Structural operators: concatenation.

InceptionV3's module outputs concatenate several towers along the channel
axis — these concat nodes are exactly the high-degree vertices the paper's
GENERATESEQ ordering exists to handle (Fig. 5).
"""

from __future__ import annotations

from typing import Sequence

from ..core.dims import Dim
from ..core.tensors import TensorSpec
from .base import OpSpec

__all__ = ["Concat"]


def Concat(name: str, *, parts: Sequence[int], batch: int,
           hw: tuple[int, int] | None = None,
           axis_name: str = "c") -> OpSpec:
    """Channel-axis concatenation of ``len(parts)`` input tensors.

    The concatenated axis is a real dim of extent ``sum(parts)``; input
    port ``in{i}`` uses the alias axis ``{axis_name}{i}`` of extent
    ``parts[i]``, which follows the concatenated axis's split — splitting
    the output channels splits every input proportionally.

    ``hw=None`` builds the sequence-model variant ``(b, axis)`` instead of
    the CNN variant ``(b, c, h, w)``.
    """
    total = int(sum(parts))
    if hw is not None:
        dims = (Dim("b", batch), Dim(axis_name, total),
                Dim("h", hw[0]), Dim("w", hw[1]))
        tail = ("h", "w")
    else:
        dims = (Dim("b", batch), Dim(axis_name, total))
        tail = ()
    aliases = {f"{axis_name}{i}": (axis_name, int(sz)) for i, sz in enumerate(parts)}
    inputs = {
        f"in{i}": TensorSpec(axes=("b", f"{axis_name}{i}") + tail)
        for i in range(len(parts))
    }
    return OpSpec(
        name=name,
        kind="concat",
        dims=dims,
        inputs=inputs,
        outputs={"out": TensorSpec(axes=("b", axis_name) + tail)},
        flops_per_point=1.0,  # a copy, charged as one move per point
        aliases=aliases,
    )
