"""Table I: time taken by different algorithms to find strategies.

Columns per benchmark: BF (the DP over a breadth-first ordering, which
Theorem 1 makes the naive recurrence (2) — runs out of memory on
InceptionV3 and Transformer), FlexFlow (the MCMC comparator), and Ours
(FINDBESTSTRATEGY over GENERATESEQ).
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from typing import Sequence

from ..analysis.reporting import format_grid, format_time
from ..core.exceptions import SearchResourceError
from ..core.machine import GTX1080TI
from ..runtime import EXIT_DEADLINE, RunBudget
from .common import add_reduce_arg, at_least, build_setup, search_with

__all__ = ["Table1Cell", "run_table1", "main", "DEFAULT_PS", "FULL_PS"]

#: Device counts for the default (CI-sized) sweep and the full paper sweep.
DEFAULT_PS: tuple[int, ...] = (4, 8, 16)
FULL_PS: tuple[int, ...] = (4, 8, 16, 32, 64)

BENCH_ORDER = ("alexnet", "inception_v3", "rnnlm", "transformer")
METHOD_ORDER = ("bf", "mcmc", "ours")
METHOD_LABEL = {"bf": "BF", "mcmc": "FlexFlow", "ours": "Ours"}


@dataclass
class Table1Cell:
    """One (benchmark, p, method) measurement."""

    benchmark: str
    p: int
    method: str
    seconds: float | None  # None == resource-budget exceeded ("OOM")
    cost: float | None

    @property
    def oom(self) -> bool:
        return self.seconds is None


def run_table1(*, benchmarks: Sequence[str] = BENCH_ORDER,
               ps: Sequence[int] = DEFAULT_PS,
               methods: Sequence[str] = METHOD_ORDER,
               seed: int = 0, reduce: bool = False,
               budget: RunBudget | None = None) -> list[Table1Cell]:
    """Time every (benchmark, p, method) combination.

    BF's state-space blow-ups surface as `SearchResourceError` and are
    recorded as OOM cells, matching the paper's entries.  ``reduce``
    runs the exact search-space reduction ahead of the "ours" DP (its
    seconds are part of the timed search, so the column stays honest).
    An expired ``budget`` deadline stops the sweep at the next cell
    boundary and returns the cells measured so far (partial results,
    never a crash).
    """
    budget = (budget or RunBudget()).start()
    cells: list[Table1Cell] = []
    for bench in benchmarks:
        for p in ps:
            if budget.expired:
                return cells
            setup = build_setup(bench, p, machine=GTX1080TI)
            for method in methods:
                if budget.expired:
                    return cells
                try:
                    res = search_with(setup, method, seed=seed,
                                      reduce=reduce)
                    cells.append(Table1Cell(bench, p, method,
                                            res.elapsed, res.cost))
                except SearchResourceError:
                    cells.append(Table1Cell(bench, p, method, None, None))
    return cells


def format_table1(cells: Sequence[Table1Cell]) -> str:
    benches = list(dict.fromkeys(c.benchmark for c in cells))
    methods = list(dict.fromkeys(c.method for c in cells))
    ps = sorted({c.p for c in cells})
    index = {(c.benchmark, c.p, c.method): c for c in cells}
    headers = ["p"] + [f"{b}/{METHOD_LABEL.get(m, m)}"
                       for b in benches for m in methods]
    rows = []
    for p in ps:
        row: list[object] = [p]
        for b in benches:
            for m in methods:
                cell = index.get((b, p, m))
                row.append("-" if cell is None else format_time(cell.seconds))
        rows.append(row)
    return format_grid(headers, rows)


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--full", action="store_true",
                        help=f"sweep p={FULL_PS} (long) instead of {DEFAULT_PS}")
    parser.add_argument("--benchmarks", nargs="*", default=list(BENCH_ORDER))
    parser.add_argument("--seed", type=int, default=0,
                        help="RNG seed for the stochastic baselines (MCMC)")
    add_reduce_arg(parser)
    parser.add_argument("--deadline", type=at_least(float, 0), default=None,
                        metavar="SECONDS",
                        help="stop the sweep at the next cell boundary once "
                        "this wall-clock budget expires (partial table, "
                        "exit code 5)")
    args = parser.parse_args(argv)
    budget = RunBudget(deadline=args.deadline).start()
    cells = run_table1(benchmarks=args.benchmarks,
                       ps=FULL_PS if args.full else DEFAULT_PS,
                       seed=args.seed, reduce=args.reduce, budget=budget)
    print(format_table1(cells))
    if budget.expired:
        print(f"deadline of {args.deadline:.1f}s exceeded after "
              f"{len(cells)} cell(s): partial results above")
        return EXIT_DEADLINE
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
