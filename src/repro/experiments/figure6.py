"""Figure 6: simulated training-throughput speedups over data parallelism.

For each benchmark, device count, and machine profile, the strategies of
interest (ours, expert, FlexFlow-MCMC) are searched/constructed, placed
with the greedy locality placer, executed on the discrete-event cluster
simulator, and reported as speedup over the data-parallel baseline —
Fig. 6a (1080Ti) and Fig. 6b (2080Ti).
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from typing import Sequence

from ..analysis.reporting import format_speedup_table
from ..cluster.simulator import simulate_step
from ..core.machine import GTX1080TI, RTX2080TI, MachineSpec
from ..runtime import EXIT_DEADLINE, RunBudget
from .common import add_reduce_arg, at_least, build_setup, search_with

__all__ = ["Figure6Point", "run_figure6", "main", "DEFAULT_PS"]

DEFAULT_PS: tuple[int, ...] = (4, 8, 16)
FULL_PS: tuple[int, ...] = (4, 8, 16, 32, 64)
BENCH_ORDER = ("alexnet", "inception_v3", "rnnlm", "transformer")
METHODS = ("expert", "mcmc", "ours")


@dataclass
class Figure6Point:
    """One bar of Fig. 6."""

    machine: str
    benchmark: str
    p: int
    method: str
    throughput: float
    speedup_over_dp: float


def run_figure6(*, benchmarks: Sequence[str] = BENCH_ORDER,
                ps: Sequence[int] = DEFAULT_PS,
                machines: Sequence[MachineSpec] = (GTX1080TI, RTX2080TI),
                methods: Sequence[str] = METHODS,
                seed: int = 0, reduce: bool = False,
                budget: RunBudget | None = None) -> list[Figure6Point]:
    """An expired ``budget`` deadline stops the sweep at the next
    (machine, benchmark, p) cell and returns the points measured so far.
    """
    budget = (budget or RunBudget()).start()
    points: list[Figure6Point] = []
    for machine in machines:
        for bench in benchmarks:
            for p in ps:
                if budget.expired:
                    return points
                setup = build_setup(bench, p, machine=machine)
                dp = search_with(setup, "data_parallel").strategy
                base = simulate_step(setup.graph, dp, machine, p)
                points.append(Figure6Point(machine.name, bench, p,
                                           "data_parallel",
                                           base.throughput, 1.0))
                for method in methods:
                    strat = search_with(setup, method, seed=seed,
                                        reduce=reduce).strategy
                    rep = simulate_step(setup.graph, strat, machine, p)
                    points.append(Figure6Point(
                        machine.name, bench, p, method, rep.throughput,
                        rep.throughput / base.throughput))
    return points


def as_table(points: Sequence[Figure6Point], machine: str) -> str:
    data: dict[str, dict[int, dict[str, float]]] = {}
    methods: list[str] = []
    for pt in points:
        if pt.machine != machine:
            continue
        data.setdefault(pt.benchmark, {}).setdefault(pt.p, {})[pt.method] = \
            pt.speedup_over_dp
        if pt.method not in methods:
            methods.append(pt.method)
    return format_speedup_table(data, methods)


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
                        help="stop the sweep at the next (machine, "
                        "benchmark, p) cell once this wall-clock budget "
                        "expires (partial results, exit code 5)")
    args = parser.parse_args(argv)
    budget = RunBudget(deadline=args.deadline).start()
    points = run_figure6(benchmarks=args.benchmarks,
                         ps=FULL_PS if args.full else DEFAULT_PS,
                         seed=args.seed, reduce=args.reduce, budget=budget)
    for machine in ("1080Ti", "2080Ti"):
        fig = "6a" if machine == "1080Ti" else "6b"
        print(f"== Figure {fig}: speedup over data parallelism ({machine}) ==")
        print(as_table(points, machine))
        print()
    if budget.expired:
        print(f"deadline of {args.deadline:.1f}s exceeded after "
              f"{len(points)} point(s): partial results above")
        return EXIT_DEADLINE
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
