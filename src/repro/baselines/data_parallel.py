"""Pure data parallelism: split every layer's batch dim ``p`` ways."""

from __future__ import annotations

from ..core.exceptions import StrategyError
from ..core.graph import CompGraph
from ..core.strategy import Strategy
from ..obs.profile import profiled
from ._util import pow2_floor

__all__ = ["data_parallel_strategy"]


@profiled("baseline.data_parallel")
def data_parallel_strategy(graph: CompGraph, p: int) -> Strategy:
    """The standard baseline: each device gets a full model replica and a
    ``1/p`` batch shard.

    The split of the batch dim ``b`` is capped to the largest power of
    two not exceeding the batch extent (data parallelism cannot use more
    devices than samples); all other dims stay unsplit.
    """
    assignment: dict[str, tuple[int, ...]] = {}
    for op in graph:
        if not op.has_dim("b") or op.resolve_dim("b") != "b":
            raise StrategyError(f"node {op.name!r} has no primary batch dim 'b'")
        cfg = [1] * op.rank
        cfg[op.dim_index("b")] = pow2_floor(min(p, op.dim_size("b")))
        assignment[op.name] = tuple(cfg)
    return Strategy(assignment)
