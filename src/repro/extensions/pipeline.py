"""PipeDream-style stage partitioning composed with PaSE.

Section VI of the paper: "the computation graph can be first split into
multiple stages using [PipeDream's] formulation to achieve inter-batch
pipeline parallelism, and the subgraphs from each stage can be further
parallelized with data+parameter parallelism using our approach."

This module implements that composition:

1. :func:`partition_stages` cuts the topological order into ``k``
   contiguous stages, minimizing the heaviest stage's analytic serial
   cost (the classic chain-partitioning DP PipeDream's planner solves);
2. :func:`pipeline_pase` gives each stage an equal share of the devices
   and runs FINDBESTSTRATEGY on each stage subgraph independently;
3. steady-state pipeline throughput is bounded by the slowest stage, so
   the combined estimate is ``batch / max_stage_cost`` in cost-model
   units (inter-stage activations transfer once per microbatch and are
   charged to the stage boundary).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.configs import ConfigSpace
from ..core.costmodel import CostModel
from ..core.dp import find_best_strategy
from ..core.exceptions import StrategyError
from ..core.graph import CompGraph
from ..core.machine import GTX1080TI, MachineSpec
from ..core.strategy import Strategy

__all__ = ["partition_stages", "pipeline_pase", "PipelineResult"]


def partition_stages(graph: CompGraph, k: int) -> list[list[str]]:
    """Split the topological order into ``k`` contiguous stages minimizing
    the maximum per-stage serial FLOPs (min-max chain partitioning DP)."""
    if k < 1:
        raise StrategyError(f"stage count {k} must be >= 1")
    order = list(graph.topological_order())
    n = len(order)
    if k > n:
        raise StrategyError(f"cannot cut {n} nodes into {k} stages")
    weights = np.array([graph.node(name).flops for name in order])
    prefix = np.concatenate([[0.0], np.cumsum(weights)])

    # dp[j][i] = best max-stage-cost splitting the first i nodes into j stages.
    inf = float("inf")
    dp = np.full((k + 1, n + 1), inf)
    cut = np.zeros((k + 1, n + 1), dtype=np.int64)
    dp[0, 0] = 0.0
    for j in range(1, k + 1):
        for i in range(j, n + 1):
            # last stage covers (t, i]
            for t in range(j - 1, i):
                cost = max(dp[j - 1, t], prefix[i] - prefix[t])
                if cost < dp[j, i]:
                    dp[j, i] = cost
                    cut[j, i] = t
    stages: list[list[str]] = []
    i = n
    for j in range(k, 0, -1):
        t = int(cut[j, i])
        stages.append(order[t:i])
        i = t
    stages.reverse()
    return stages


@dataclass
class PipelineResult:
    """Outcome of a pipeline+PaSE composition."""

    stages: list[list[str]]
    strategies: list[Strategy]
    stage_costs: list[float]
    devices_per_stage: int
    combined: Strategy

    @property
    def bottleneck_cost(self) -> float:
        """Steady-state step cost = the slowest stage's cost."""
        return max(self.stage_costs)

    @property
    def pipeline_efficiency(self) -> float:
        """Mean stage cost over bottleneck cost (1.0 = perfectly balanced)."""
        return float(np.mean(self.stage_costs) / self.bottleneck_cost)


def pipeline_pase(graph: CompGraph, p: int, stages: int, *,
                  machine: MachineSpec = GTX1080TI,
                  mode: str = "pow2", jobs: int | str | None = None,
                  cache: "object | None" = None,
                  reduce: bool = False) -> PipelineResult:
    """Partition into pipeline stages, then run PaSE within each stage.

    Each stage receives ``p // stages`` devices (must divide evenly) and
    is searched independently — exactly the composition Section VI
    proposes.  The returned ``combined`` strategy concatenates the
    per-stage assignments and is valid for the whole graph at the
    per-stage device count.  ``jobs``/``cache`` are forwarded to each
    stage's `CostModel.build_tables` (every stage subgraph gets its own
    cache entry — the digest covers the induced structure); ``reduce``
    runs the search-space reduction ahead of each per-stage DP — stage
    subgraphs are mostly chains, where contraction shines.
    """
    if stages < 1 or p % stages != 0:
        raise StrategyError(f"p={p} must split evenly into {stages} stages")
    per_stage = p // stages
    parts = partition_stages(graph, stages)
    cm = CostModel(machine)
    from ..runtime.context import RunContext

    ctx = RunContext(jobs=jobs, cache=cache)
    strategies: list[Strategy] = []
    costs: list[float] = []
    merged: dict[str, tuple[int, ...]] = {}
    for part in parts:
        sub = graph.induced_subgraph(part)
        space = ConfigSpace.build(sub, per_stage, mode=mode)
        tables = cm.build_tables(sub, space, ctx=ctx)
        res = find_best_strategy(sub, space, tables, reduce=reduce)
        strategies.append(res.strategy)
        costs.append(res.cost)
        merged.update(res.strategy.assignment)
    combined = Strategy(merged)
    combined.validate(graph, per_stage)
    return PipelineResult(stages=parts, strategies=strategies,
                          stage_costs=costs, devices_per_stage=per_stage,
                          combined=combined)
