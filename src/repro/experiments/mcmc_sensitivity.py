"""MCMC initial-candidate sensitivity (paper Section IV, FlexFlow notes).

The paper motivates using expert strategies as FlexFlow's initial
candidates: "the efficiency of the strategy found by FlexFlow might also
vary depending on the initial candidate" and the meta-heuristic "could
get stuck in a local minima, returning a sub-optimal strategy".  This
experiment quantifies both effects on our MCMC comparator: final strategy
quality (relative to the DP optimum) across initial candidates and seeds.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..analysis.reporting import format_grid
from ..baselines import (
    MCMCOptions,
    auto_expert_strategy,
    data_parallel_strategy,
    mcmc_search,
)
from ..core.strategy import Strategy
from ..runtime import EXIT_DEADLINE, RunBudget
from .common import add_jobs_arg, build_setup, search_with

__all__ = ["run_mcmc_sensitivity", "SensitivityRow", "main"]


@dataclass
class SensitivityRow:
    """Quality of one (init, seed) MCMC run, relative to the DP optimum."""

    benchmark: str
    init: str
    seed: int
    cost: float
    gap_vs_dp_optimum: float  # cost / optimum - 1
    iterations: int


def run_mcmc_sensitivity(*, benchmark: str = "transformer", p: int = 8,
                         seeds: Sequence[int] = (0, 1, 2),
                         max_iters: int = 50_000, jobs: int | str | None = None,
                         cache_dir: str | None = None,
                         reduce: bool = False,
                         budget: RunBudget | None = None
                         ) -> list[SensitivityRow]:
    """An expired ``budget`` deadline stops the sweep at the next
    (init, seed) MCMC run and returns the rows measured so far.
    """
    budget = (budget or RunBudget()).start()
    setup = build_setup(benchmark, p, jobs=jobs, cache_dir=cache_dir)
    optimum = search_with(setup, "ours", reduce=reduce).cost
    inits: dict[str, Strategy | None] = {
        "serial": None,
        "data_parallel": data_parallel_strategy(setup.graph, p),
        "expert": auto_expert_strategy(setup.graph, p),
    }
    rows: list[SensitivityRow] = []
    options = MCMCOptions(max_iters=max_iters, min_iters=max_iters // 5)
    for label, init in inits.items():
        for seed in seeds:
            if budget.expired:
                return rows
            res = mcmc_search(setup.graph, setup.space, setup.tables,
                              init=init, rng=np.random.default_rng(seed),
                              options=options)
            rows.append(SensitivityRow(
                benchmark=benchmark, init=label, seed=seed, cost=res.cost,
                gap_vs_dp_optimum=res.cost / optimum - 1.0,
                iterations=int(res.stats["iterations"])))
    return rows


def format_sensitivity(rows: Sequence[SensitivityRow]) -> str:
    grid = [[r.init, r.seed, f"{r.cost:.4e}",
             f"{100 * r.gap_vs_dp_optimum:+.2f}%", r.iterations]
            for r in rows]
    return format_grid(["init", "seed", "cost", "gap vs optimum", "iters"],
                       grid)


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--benchmark", default="transformer")
    parser.add_argument("--p", type=int, default=8)
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2],
                        help="RNG seeds, one MCMC run per seed and init")
    add_jobs_arg(parser)
    parser.add_argument("--table-cache", metavar="DIR", default=None,
                        help="cache precomputed cost tables under DIR")
    parser.add_argument("--reduce", action=argparse.BooleanOptionalAction,
                        default=False,
                        help="exact search-space reduction before the DP")
    parser.add_argument("--deadline", type=float, default=None,
                        metavar="SECONDS",
                        help="stop the sweep at the next (init, seed) run "
                        "once this wall-clock budget expires (partial "
                        "results, exit code 5)")
    args = parser.parse_args(argv)
    budget = RunBudget(deadline=args.deadline).start()
    rows = run_mcmc_sensitivity(benchmark=args.benchmark, p=args.p,
                                seeds=tuple(args.seeds), jobs=args.jobs,
                                cache_dir=args.table_cache,
                                reduce=args.reduce, budget=budget)
    print(format_sensitivity(rows))
    if budget.expired:
        print(f"deadline of {args.deadline:.1f}s exceeded after "
              f"{len(rows)} row(s): partial results above")
        return EXIT_DEADLINE
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
