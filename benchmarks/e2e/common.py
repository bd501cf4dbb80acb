"""Statistics, span accounting and the correctness oracle of the benchmark.

Nothing here imports ``repro`` at module level, so ``run.py --check`` and
the harness tests run without the package on the path.
"""

from __future__ import annotations

import json
import math
import resource
import statistics
from fractions import Fraction
from pathlib import Path

from workloads import scalar_key

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
#: Scratch space (table caches, serve state dirs, temp files), ignored by git.
WORK = ROOT / ".bench_e2e"
EXPECTED = HERE / "expected.json"
BENCHMARK = ROOT / "BENCHMARK.json"

#: Percentiles a tail may be reported at, highest first.
PERCENTILE_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
#: A percentile is reported only with at least this many samples above it.
MIN_BEYOND = 10

#: Models whose graphs are chains, where the recurrence-(2) DP is cheap.
CHAIN_MODELS = ("alexnet", "rnnlm")
CHAIN_REL_TOL = 1e-12


# -- statistics ---------------------------------------------------------------

def tail_percentile(n: int) -> float | None:
    """The highest ladder percentile with ``MIN_BEYOND`` samples beyond it."""
    for q in PERCENTILE_LADDER:
        if n - _rank(q, n) >= MIN_BEYOND:
            return q
    return None


def _rank(q: float, n: int) -> int:
    """Nearest-rank position (1-based) of percentile ``q`` among ``n``."""
    return max(1, math.ceil(Fraction(str(q)) * n / 100))


def percentile(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[_rank(q, len(ordered)) - 1]


def geomean(values) -> float:
    values = list(values)
    if any(math.isinf(v) for v in values):
        return math.inf
    return math.exp(statistics.fmean(math.log(v) for v in values))


def quartiles(values) -> tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else math.inf


def verdict(before, after, better: str, bound: float) -> str:
    """``ok``, ``regressed`` or ``unresolved`` for one (workload, metric).

    ``after`` regressed when its median is worse than ``before``'s by more
    than ``bound`` (a share of ``before``'s median).  When either side's
    spread exceeds the bound the comparison cannot tell, unless every run
    of ``after`` reads better than every run of ``before``.
    """
    if max(spread(before), spread(after)) > bound:
        if better == "lower":
            clear_win = max(after) < min(before)
        else:
            clear_win = min(after) > max(before)
        return "ok" if clear_win else "unresolved"
    med_before = quartiles(before)[1]
    worse = (quartiles(after)[1] - med_before) / abs(med_before)
    if better != "lower":
        worse = -worse
    return "regressed" if worse > bound else "ok"


def peak_rss_mb() -> float:
    """Max resident set of this process and of every waited-for child."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def metric(value: float, unit: str, n: int | None = None) -> dict:
    out = {"value": value, "unit": unit}
    if n is not None:
        out["n"] = n
    return out


# -- spans --------------------------------------------------------------------

def self_seconds(node: dict) -> float:
    """A span's duration minus the time its children cover."""
    return max(0.0, node["seconds"] - sum(c["seconds"]
                                          for c in node["children"]))


def layer_self_times(roots) -> dict[str, float]:
    """Self seconds per span name, summed over every descendant of ``roots``."""
    totals: dict[str, float] = {}
    stack = [c for r in roots for c in r["children"]]
    while stack:
        node = stack.pop()
        totals[node["name"]] = totals.get(node["name"], 0.0) + \
            self_seconds(node)
        stack.extend(node["children"])
    return totals


# -- correctness oracle -------------------------------------------------------

class Oracle:
    """Checks answers against ``expected.json`` and independent oracles.

    Every check counts as attempted; every mismatch is recorded with a
    message, counts as failed, and makes the run's exit code non-zero.
    """

    def __init__(self, path: Path = EXPECTED) -> None:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        self.scalar: dict[str, float] = doc["scalar"]
        self.frontier: dict[str, dict] = doc["frontier"]
        self.attempted = 0
        self.failures: list[str] = []
        self._naive: dict[tuple[str, int], float] = {}

    def check(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(message)
        return ok

    def fail(self, message: str) -> None:
        """Record an operation that produced no answer at all."""
        self.check(False, message)

    def cost(self, key: str, cost: float) -> bool:
        pin = self.scalar.get(key)
        return self.check(cost == pin,
                          f"{key}: cost {cost!r} != pinned {pin!r}")

    def chain(self, model: str, p: int, cost: float) -> bool:
        """Recurrence-(2) DP agreement for chain models (memoized)."""
        if model not in CHAIN_MODELS:
            return True
        if (model, p) not in self._naive:
            from repro.api import Problem
            from repro.core.naive import naive_bf_strategy

            prob = Problem.from_benchmark(model, p)
            tables = prob.cost_model().build_tables(prob.graph, prob.space)
            self._naive[(model, p)] = naive_bf_strategy(
                prob.graph, prob.space, tables).cost
        naive = self._naive[(model, p)]
        return self.check(
            math.isclose(cost, naive, rel_tol=CHAIN_REL_TOL, abs_tol=0.0),
            f"{model}/{p}: cost {cost!r} disagrees with the "
            f"recurrence-(2) DP {naive!r}")

    def frontier_points(self, key: str, points) -> bool:
        """Min-cost point, point count and pairwise non-dominance.

        ``points`` is a sequence of (cost, peak_bytes).  The min-cost point
        must also match any scalar pin of the same (model, p) within the
        chain tolerance: the reduced scalar path re-sums the cost in
        another order, so the last bits may differ.
        """
        pin = self.frontier.get(key, {})
        best = min(c for c, _ in points)
        ok = self.check(best == pin.get("cost"),
                        f"{key}: min cost {best!r} != pinned "
                        f"{pin.get('cost')!r}")
        ok &= self.check(len(points) == pin.get("points"),
                         f"{key}: {len(points)} points != pinned "
                         f"{pin.get('points')}")
        dominated = [
            (a, b) for i, a in enumerate(points)
            for j, b in enumerate(points)
            if i != j and b[0] <= a[0] and b[1] <= a[1]]
        ok &= self.check(not dominated,
                         f"{key}: dominated points {dominated[:2]}")
        model, p, _ = key.split("/", 2)
        for reduce in (False, True):
            scalar = self.scalar.get(scalar_key(model, int(p), reduce))
            if scalar is not None:
                ok &= self.check(
                    math.isclose(best, scalar, rel_tol=CHAIN_REL_TOL,
                                 abs_tol=0.0),
                    f"{key}: min cost {best!r} != scalar pin {scalar!r}")
        return ok
