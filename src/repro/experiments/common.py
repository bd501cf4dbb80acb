"""Shared experiment machinery: setups, method dispatch, caching."""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..baselines import (
    MCMCOptions,
    auto_expert_strategy,
    data_parallel_strategy,
    mcmc_search,
    random_search,
)
from ..core.configs import ConfigSpace
from ..core.costmodel import CostModel, CostTables, _parse_jobs
from ..core.dp import find_best_strategy
from ..core.graph import CompGraph
from ..core.machine import GTX1080TI, MachineSpec
from ..core.naive import naive_bf_strategy
from ..core.strategy import SearchResult, Strategy
from ..models import BENCHMARKS

__all__ = ["BenchSetup", "add_table_args", "build_setup", "search_with",
           "METHODS"]

#: Search/baseline method names accepted by :func:`search_with`.
METHODS = ("ours", "bf", "mcmc", "data_parallel", "expert", "random")


@dataclass
class BenchSetup:
    """One (benchmark, p, machine) problem instance with shared oracle."""

    name: str
    graph: CompGraph
    p: int
    machine: MachineSpec
    space: ConfigSpace
    tables: CostTables


def _jobs_arg(value: str) -> int | str:
    """argparse type for ``--jobs``: a worker count or a backend spelling.

    Every value is validated by `repro.core.costmodel._parse_jobs`, so a
    negative count or an unknown backend is a usage error (exit 2), not
    a traceback once the tables are built.
    """
    try:
        jobs: int | str = int(value)
    except ValueError:
        jobs = value
    try:
        _parse_jobs(jobs)
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from None
    return jobs


def add_table_args(parser: argparse.ArgumentParser) -> None:
    """The ``--jobs``/``--table-cache``/``--reduce`` options of every
    table-building entry point."""
    parser.add_argument("--jobs", type=_jobs_arg, default=None, metavar="N",
                        help="cost-table construction parallelism: a "
                        "worker count (0 = all cores; threads once the "
                        "tables are large enough) or one of 'serial', "
                        "'auto[:N]', 'threads[:N]' (default: serial)")
    parser.add_argument("--table-cache", metavar="DIR", default=None,
                        help="cache precomputed cost tables under DIR "
                        "(content-addressed; reused across runs)")
    parser.add_argument("--reduce", action=argparse.BooleanOptionalAction,
                        default=False,
                        help="run the exactness-preserving search-space "
                        "reduction (dominance pruning + chain contraction) "
                        "before the DP (auto-bypassed when the plain DP is "
                        "predicted to be cheap)")


@lru_cache(maxsize=32)
def _cached_setup(name: str, p: int, machine: MachineSpec, mode: str,
                  jobs: int | str | None, cache_dir: str | None) -> BenchSetup:
    graph = BENCHMARKS[name]()
    space = ConfigSpace.build(graph, p, mode=mode)
    cache = None
    if cache_dir is not None:
        from ..core.tablecache import TableCache
        cache = TableCache(cache_dir)
    from ..runtime.context import RunContext
    tables = CostModel(machine).build_tables(
        graph, space, ctx=RunContext(jobs=jobs, cache=cache))
    return BenchSetup(name=name, graph=graph, p=p, machine=machine,
                      space=space, tables=tables)


def build_setup(name: str, p: int, *, machine: MachineSpec = GTX1080TI,
                mode: str = "pow2", jobs: int | str | None = None,
                cache_dir: str | None = None) -> BenchSetup:
    """Build (and memoize) graph + config space + cost tables.

    ``jobs`` parallelizes the cost-table construction (0 = all cores);
    ``cache_dir`` enables the on-disk table cache rooted there.
    """
    return _cached_setup(name, p, machine, mode, jobs,
                         None if cache_dir is None else str(cache_dir))


def search_with(setup: BenchSetup, method: str, *, seed: int = 0,
                mcmc_options: MCMCOptions | None = None,
                bf_time_budget: float | None = 60.0,
                reduce: bool = False) -> SearchResult:
    """Run one search/baseline method on a setup.

    Baselines that are closed-form (data parallelism, expert) are wrapped
    in a `SearchResult` with near-zero elapsed time.  The breadth-first
    DP gets a time budget on top of its byte budget (both failure modes
    surface as `SearchResourceError`, Table I's OOM): on the branchy
    graphs it can grind through hours of chunked table evaluations before
    finally exceeding memory.  ``reduce`` turns on the exactness-
    preserving search-space reduction ahead of the DP (method "ours").
    """
    import time

    if method == "ours":
        return find_best_strategy(setup.graph, setup.space, setup.tables,
                                  reduce=reduce)
    if method == "bf":
        return naive_bf_strategy(setup.graph, setup.space, setup.tables,
                                 time_budget=bf_time_budget)
    if method == "mcmc":
        init = auto_expert_strategy(setup.graph, setup.p)
        return mcmc_search(setup.graph, setup.space, setup.tables, init=init,
                           rng=np.random.default_rng(seed),
                           options=mcmc_options or MCMCOptions())
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
