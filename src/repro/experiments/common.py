"""Shared experiment machinery: setups, method dispatch, caching."""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..baselines import (
    auto_expert_strategy,
    data_parallel_strategy,
    mcmc_search,
    random_search,
)
from ..core.configs import ConfigSpace
from ..core.costmodel import CostModel, CostTables
from ..core.dp import find_best_strategy
from ..core.exceptions import DeadlineExceededError, SearchResourceError
from ..core.graph import CompGraph
from ..core.machine import GTX1080TI, MachineSpec
from ..core.sequencer import breadth_first_seq
from ..core.strategy import SearchResult, Strategy
from ..models import BENCHMARKS
from ..runtime import RunBudget, RunContext

__all__ = ["BenchSetup", "add_reduce_arg", "at_least", "build_setup",
           "search_with", "METHODS"]

#: Search/baseline method names accepted by :func:`search_with`.
METHODS = ("ours", "bf", "mcmc", "data_parallel", "expert", "random")

#: Wall-clock budget of one breadth-first search in :func:`search_with`.
#: On the branchy graphs a BF table can grind for minutes while it still
#: fits the byte budget; running out of either is Table I's "OOM".
BF_TIME_BUDGET_SECONDS = 60.0


@dataclass
class BenchSetup:
    """One (graph, p, machine) problem instance with shared oracle."""

    graph: CompGraph
    p: int
    machine: MachineSpec
    space: ConfigSpace
    tables: CostTables


def add_reduce_arg(parser: argparse.ArgumentParser) -> None:
    """The ``--reduce`` option of every table-building entry point."""
    parser.add_argument("--reduce", action=argparse.BooleanOptionalAction,
                        default=False,
                        help="run the exactness-preserving search-space "
                        "reduction (dominance pruning + chain contraction) "
                        "before the DP (auto-bypassed when the plain DP is "
                        "predicted to be cheap)")


def at_least(kind: type, low: float, *, strict: bool = False):
    """An argparse ``type=`` parsing ``kind`` and refusing values below
    ``low`` (with ``strict``, also ``low`` itself) and NaN, so a bad
    number is a usage error (exit 2) naming its option, not a library
    traceback."""
    def parse(text: str):
        value = kind(text)
        if not (value > low if strict else value >= low):
            raise argparse.ArgumentTypeError(
                f"must be {'>' if strict else '>='} {low}, got {text!r}")
        return value

    parse.__name__ = kind.__name__  # argparse's "invalid int value: ..."
    return parse


@lru_cache(maxsize=32)
def _cached_setup(name: str, p: int, machine: MachineSpec,
                  mode: str) -> BenchSetup:
    graph = BENCHMARKS[name]()
    space = ConfigSpace.build(graph, p, mode=mode)
    tables = CostModel(machine).build_tables(graph, space)
    return BenchSetup(graph=graph, p=p, machine=machine, space=space,
                      tables=tables)


def build_setup(name: str, p: int, *, machine: MachineSpec = GTX1080TI,
                mode: str = "pow2") -> BenchSetup:
    """Build (and memoize) graph + config space + cost tables."""
    return _cached_setup(name, p, machine, mode)


def search_with(setup: BenchSetup, method: str, *, seed: int = 0,
                reduce: bool = False) -> SearchResult:
    """Run one search/baseline method on a setup.

    Baselines that are closed-form (data parallelism, expert) are wrapped
    in a `SearchResult` with near-zero elapsed time.  ``"bf"`` is the DP
    over a breadth-first ordering (Table I's BF column), never reduced,
    under `BF_TIME_BUDGET_SECONDS` on top of the byte budget; both
    failure modes surface as `SearchResourceError`, Table I's OOM.
    ``reduce`` turns on the exactness-preserving search-space reduction
    ahead of the DP (method "ours").
    """
    import time

    if method == "ours":
        return find_best_strategy(setup.graph, setup.space, setup.tables,
                                  reduce=reduce)
    if method == "bf":
        ctx = RunContext(budget=RunBudget(deadline=BF_TIME_BUDGET_SECONDS))
        try:
            return find_best_strategy(
                setup.graph, setup.space, setup.tables,
                order=breadth_first_seq(setup.graph), method_name="naive-bf",
                ctx=ctx)
        except DeadlineExceededError as err:
            raise SearchResourceError(f"BF search: {err}") from err
    if method == "mcmc":
        init = auto_expert_strategy(setup.graph, setup.p)
        return mcmc_search(setup.graph, setup.space, setup.tables, init=init,
                           rng=np.random.default_rng(seed))
    if method == "random":
        return random_search(setup.graph, setup.space, setup.tables,
                             rng=np.random.default_rng(seed))
    if method in ("data_parallel", "expert"):
        t0 = time.perf_counter()
        strat: Strategy = (data_parallel_strategy(setup.graph, setup.p)
                           if method == "data_parallel"
                           else auto_expert_strategy(setup.graph, setup.p))
        return SearchResult(
            strategy=strat,
            cost=strat.cost(setup.tables),
            elapsed=time.perf_counter() - t0,
            method=method,
        )
    raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
