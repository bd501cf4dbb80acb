"""Ablations for the design decisions DESIGN.md calls out.

* Ordering ablation — recurrence (4) is valid for any ordering (Theorem
  1); only table sizes change.  Compares GENERATESEQ, breadth-first, and
  random orderings on DP work (cells) and wall time at equal final cost.
* Configuration-granularity ablation — pow2 vs divisors vs all-factor
  enumeration: search-space size against solution quality.
* Cost-term ablation — disabling the gradient-sync / partial-sum /
  operator-extra communication terms shows which term drives each
  strategy decision (without gradient sync, data parallelism looks free
  and the searcher happily picks it).
"""

from __future__ import annotations

import numpy as np

from ..core.configs import MODES, ConfigSpace
from ..core.costmodel import CostModel
from ..core.dp import find_best_strategy
from ..core.exceptions import SearchResourceError
from ..core.graph import CompGraph
from ..core.machine import GTX1080TI, MachineSpec
from ..core.sequencer import breadth_first_seq, generate_seq, random_seq

__all__ = [
    "run_ordering_ablation",
    "run_config_mode_ablation",
    "run_costterm_ablation",
]


def run_ordering_ablation(graph: CompGraph, p: int, *,
                          machine: MachineSpec = GTX1080TI,
                          seed: int = 0,
                          memory_budget: int | None = None) -> dict[str, dict]:
    """DP under three orderings; same optimum, very different table sizes."""
    space = ConfigSpace.build(graph, p)
    tables = CostModel(machine).build_tables(graph, space)
    orders = {
        "generate_seq": generate_seq(graph),
        "breadth_first": breadth_first_seq(graph),
        "random": random_seq(graph, np.random.default_rng(seed)),
    }
    out: dict[str, dict] = {}
    for label, order in orders.items():
        kwargs = {} if memory_budget is None else {"memory_budget": memory_budget}
        try:
            res = find_best_strategy(graph, space, tables, order=order, **kwargs)
            out[label] = {"cost": res.cost, "elapsed": res.elapsed,
                          "cells": res.stats["cells"],
                          "max_dependent": res.stats["max_dependent"],
                          "oom": False}
        except SearchResourceError:
            out[label] = {"cost": None, "elapsed": None, "cells": None,
                          "max_dependent": None, "oom": True}
    return out


def run_config_mode_ablation(graph: CompGraph, p: int, *,
                             machine: MachineSpec = GTX1080TI) -> dict[str, dict]:
    """Best-strategy cost and search effort per enumeration mode."""
    out: dict[str, dict] = {}
    for mode in MODES:
        space = ConfigSpace.build(graph, p, mode=mode)
        tables = CostModel(machine).build_tables(graph, space)
        res = find_best_strategy(graph, space, tables)
        out[mode] = {"cost": res.cost, "elapsed": res.elapsed,
                     "k_max": space.max_size,
                     "cells": res.stats["cells"]}
    return out


def run_costterm_ablation(graph: CompGraph, p: int, *,
                          machine: MachineSpec = GTX1080TI) -> dict[str, dict]:
    """Search with individual internal-communication terms disabled.

    Every ablated strategy is re-scored under the *full* model so the
    quality impact of the missing term is visible.
    """
    space = ConfigSpace.build(graph, p)
    full = CostModel(machine).build_tables(graph, space)
    variants = {
        "full": CostModel(machine),
        "no_grad_sync": CostModel(machine, include_grad_sync=False),
        "no_reduction": CostModel(machine, include_reduction=False),
        "no_extra": CostModel(machine, include_extra=False),
    }
    out: dict[str, dict] = {}
    for label, cm in variants.items():
        tables = cm.build_tables(graph, space)
        res = find_best_strategy(graph, space, tables)
        out[label] = {
            "ablated_cost": res.cost,
            "true_cost": res.strategy.cost(full),
            "strategy": res.strategy,
        }
    return out
