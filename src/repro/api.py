"""Stable high-level API for the PaSE reproduction.

Three concepts cover the common workflows:

`Problem`
    A bound problem instance — computation graph, configuration space,
    machine, and device count.  Build one from the benchmark zoo with
    :meth:`Problem.from_benchmark`, or wrap your own `CompGraph`.

`search`
    Run the full hardened search pipeline (table build → optional
    reduction → DP or baseline, optionally resilient) and return a
    `RunOutcome`.  All execution knobs — budgets, cancellation,
    journaling, observability — travel in a single optional
    `RunContext`.

`simulate`
    Price a strategy on the discrete-event cluster simulator and return
    a `SimulationReport`.

Quickstart::

    from repro.api import Problem, RunContext, search, simulate

    prob = Problem.from_benchmark("alexnet", p=8)
    outcome = search(prob)                       # tensorized DP
    print(outcome.result.cost)
    report = simulate(prob, outcome.result)      # step time / throughput
    print(report.throughput)

    # With observability:
    from repro.obs import Metrics, Tracer
    ctx = RunContext(tracer=Tracer("run.trace.jsonl"), metrics=Metrics())
    outcome = search(prob, ctx=ctx)
    ctx.metrics.dump("run.metrics.json")
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .core.configs import ConfigSpace
from .core.costmodel import CostModel
from .core.exceptions import SearchResourceError
from .core.graph import CompGraph
from .core.machine import GTX1080TI, MachineSpec
from .core.strategy import FrontierPoint, SearchResult, Strategy
from .runtime.context import RunContext
from .runtime.run import RunOutcome, execute_search

__all__ = ["Problem", "RunContext", "RunOutcome", "FrontierPoint",
           "search", "select_point", "simulate"]


@dataclass(frozen=True)
class Problem:
    """One bound strategy-search problem instance.

    Attributes
    ----------
    graph:
        The computation graph to parallelize.
    space:
        Per-node configuration space (determines ``p`` and the
        enumeration mode).
    machine:
        Hardware model used for costs and simulation.
    """

    graph: CompGraph
    space: ConfigSpace
    machine: MachineSpec = GTX1080TI

    @classmethod
    def from_benchmark(cls, name: str, p: int, *,
                       machine: MachineSpec = GTX1080TI,
                       mode: str = "pow2") -> "Problem":
        """Instantiate a zoo benchmark (``repro.models.BENCHMARKS``).

        ``mode`` picks the configuration enumeration ("pow2",
        "divisors", or "all"; paper Section II uses powers of two).
        """
        from .models import BENCHMARKS

        try:
            factory = BENCHMARKS[name]
        except KeyError:
            raise ValueError(
                f"unknown benchmark {name!r}; expected one of "
                f"{sorted(BENCHMARKS)}") from None
        graph = factory()
        return cls(graph=graph,
                   space=ConfigSpace.build(graph, p, mode=mode),
                   machine=machine)

    @classmethod
    def from_graph(cls, graph: CompGraph, p: int, *,
                   machine: MachineSpec = GTX1080TI,
                   mode: str = "pow2") -> "Problem":
        """Bind a hand-built `CompGraph` to ``p`` devices."""
        return cls(graph=graph,
                   space=ConfigSpace.build(graph, p, mode=mode),
                   machine=machine)

    @property
    def p(self) -> int:
        """Device count the configuration space was built for."""
        return self.space.p

    def cost_model(self) -> CostModel:
        return CostModel(self.machine)

    def fingerprint(self, *, method: str = "ours", seed: int = 0,
                    reduce: "bool | str" = False, resilient: bool = False,
                    memory_budget: int | None = None,
                    order: Sequence[str] | None = None,
                    objective: str = "cost") -> str:
        """Stable content hash of one *(problem, search parameters)* cell.

        The sha256 hex digest of the canonical run fingerprint
        (`repro.runtime.run.run_fingerprint`) — the same key the
        crash-safe journal validates on ``--resume`` and the serve
        daemon coalesces and caches on.  It covers everything the
        search's **answer** depends on:

        * the computation graph (every node's op descriptor and every
          edge), the machine model, and the enumerated configuration
          space (``tables_digest``);
        * the search parameters: ``method``, ``seed``, the resolved
          ``reduce`` mode (plus the auto-bypass ratio when ``auto``),
          ``resilient``, the DP ``memory_budget``, and any caller
          ``order``;
        * the canonical ``objective`` — but only for frontier runs
          (fingerprint v3).  ``objective="cost"`` hashes the exact v2
          dict this method always hashed, so every pre-existing journal
          resume key and serve coalesce/cache key stays valid.

        Deliberately excluded: wall-clock deadlines, jobs/cache
        knobs, and the observability pair — those change how fast the
        answer arrives, not what it is.  Two problems with equal
        fingerprints return bit-identical `SearchResult`\\ s, which is
        exactly what makes request coalescing and cross-request result
        caching sound.
        """
        import hashlib
        import json

        from .core.dp import DEFAULT_MEMORY_BUDGET
        from .runtime.run import run_fingerprint

        fp = run_fingerprint(
            self.graph, self.space, self.cost_model(), method=method,
            seed=seed, reduce=reduce, resilient=resilient,
            memory_budget=(DEFAULT_MEMORY_BUDGET if memory_budget is None
                           else memory_budget),
            order=order, objective=objective)
        return hashlib.sha256(
            json.dumps(fp, sort_keys=True).encode()).hexdigest()


def search(problem: Problem, *,
           method: str = "ours",
           seed: int = 0,
           order: Sequence[str] | None = None,
           reduce: bool = False,
           objective: str = "cost",
           resilient: bool = False,
           resume: bool = False,
           ctx: RunContext | None = None) -> RunOutcome:
    """Search ``problem`` for its best parallelization strategy.

    Thin veneer over `repro.runtime.execute_search`: same semantics,
    same exceptions (`SearchResourceError`, `DeadlineExceededError`,
    `RunInterrupted`, ...), same journal/resume behavior — the
    `Problem` supplies the instance and the optional `RunContext`
    supplies every execution knob (budget, cancellation, journal,
    tracer, metrics, jobs, cache).

    ``objective="frontier"`` (or ``"frontier:eps=<float>"``) returns the
    full (cost, peak-bytes) Pareto frontier in ``outcome.result
    .frontier`` with ``strategy``/``cost`` its min-cost point —
    bit-identical to the scalar optimum.  ``objective="cost"`` (default)
    is the scalar pipeline, unchanged; its ``.frontier`` is a
    synthesized length-1 tuple, so downstream code can read
    ``.frontier`` uniformly.  Pick a deployable point under a device
    memory cap with `select_point`.
    """
    return execute_search(problem.graph, problem.space, problem.machine,
                          method=method, seed=seed, order=order,
                          reduce=reduce, objective=objective,
                          resilient=resilient, resume=resume, ctx=ctx)


def select_point(frontier: "Sequence[FrontierPoint]",
                 memory_budget: int | float | None) -> FrontierPoint:
    """The min-cost frontier point whose ``peak_bytes`` fits the budget.

    ``memory_budget=None`` (no cap) returns the min-cost point.  When no
    point fits, raises `SearchResourceError` carrying the smallest
    frontier footprint as ``requested_bytes`` — the caller knows exactly
    how much memory the cheapest feasible strategy would need.
    """
    if not frontier:
        raise ValueError("select_point: empty frontier")
    if memory_budget is None:
        return min(frontier, key=lambda pt: (pt.cost, pt.peak_bytes))
    fitting = [pt for pt in frontier
               if pt.peak_bytes <= float(memory_budget)]
    if not fitting:
        tightest = min(pt.peak_bytes for pt in frontier)
        raise SearchResourceError(
            f"no frontier point fits memory_budget={int(memory_budget)} "
            f"bytes; the smallest frontier footprint is "
            f"{tightest:.0f} bytes",
            requested_bytes=int(tightest),
            budget_bytes=int(memory_budget))
    return min(fitting, key=lambda pt: (pt.cost, pt.peak_bytes))


def simulate(problem: Problem,
             strategy: "Strategy | SearchResult | FrontierPoint", *,
             efficiency: float | None = None,
             batch: int | None = None,
             keep_trace: bool = False,
             faults=None):
    """Simulate one training step of ``strategy`` on ``problem``.

    Accepts a bare `Strategy`, a `SearchResult` (its ``.strategy`` is
    used), or a `FrontierPoint` straight off a frontier — so both
    ``simulate(prob, search(prob).result)`` and ``simulate(prob,
    select_point(outcome.result.frontier, budget))`` compose directly.
    Returns the simulator's `SimulationReport`.
    """
    from .cluster import simulate_step

    if isinstance(strategy, (SearchResult, FrontierPoint)):
        strategy = strategy.strategy
    kwargs: dict = {"batch": batch, "keep_trace": keep_trace,
                    "faults": faults}
    if efficiency is not None:
        kwargs["efficiency"] = efficiency
    return simulate_step(problem.graph, strategy, problem.machine,
                         problem.p, **kwargs)
