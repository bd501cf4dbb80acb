"""Graceful degradation for the strategy search.

`repro.core.dp.find_best_strategy` raises `SearchResourceError` the
moment a DP table would blow its byte budget — correct for reproducing
Table I's OOM entries, useless for a production planner that must return
*some* strategy.  :func:`resilient_find_best_strategy` wraps the DP in a
degradation ladder and records every rung in a `ResilienceReport`:

1. **as requested** — the caller's ordering / chunk size / budget;
2. **adaptive chunk reduction** — shrink the transient cost-array chunk
   (the ``min(cells, chunk) · 8`` term of the budget check) by 8x, then
   64x;
3. **ordering fallback** — if the caller forced a non-default ordering
   (e.g. the breadth-first baseline), fall back to GENERATESEQ, which
   minimizes dependent-set sizes and hence table bytes (Theorem 1 makes
   any ordering valid, so this degrades table size, not correctness);
4. **frontier-point selection** — only when the caller *tightened* the
   byte budget below the default: run the exact Pareto-frontier DP
   (`repro.core.frontier`) at the default budget and return the
   min-cost point whose ``peak_bytes`` fits the caller's budget
   (`repro.api.select_point`).  Unlike coarsening this is **exact** —
   the point is a true optimum under the memory cap, not an optimum of
   a pruned space — so it outranks coarsening on the ladder; its own
   `SearchResourceError` (frontier too big, or no point fits) falls
   through to the rung below;
5. **configuration-space coarsening** — repeatedly halve each node's
   configuration count, keeping the serial configuration plus the
   lowest-layer-cost candidates.  Table bytes scale as ``K^{|D(i)|}``,
   so each halving cuts them exponentially; the cost optimum is now over
   a pruned space (a documented approximation, reported as such).

Only when every rung fails does the final `SearchResourceError`
propagate, with the full retry chain attached as ``err.report``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ..core.configs import ConfigSpace
from ..core.costmodel import CostTables
from ..core.dp import DEFAULT_CHUNK_CELLS, DEFAULT_MEMORY_BUDGET, \
    find_best_strategy
from ..core.exceptions import SearchResourceError
from ..core.graph import CompGraph
from ..core.strategy import SearchResult
from ..obs.profile import metrics_of, tracer_of

__all__ = ["AttemptRecord", "ResilienceReport", "coarsen_config_space",
           "resilient_find_best_strategy"]

#: Smallest transient chunk the ladder will try (cells).
MIN_CHUNK_CELLS = 4_096

#: Halvings of the configuration space the last rung tries.
COARSEN_ROUNDS = 3

#: ``SearchResult.method`` of every answer the ladder returns.
METHOD_NAME = "pase-dp-resilient"


@dataclass(frozen=True)
class AttemptRecord:
    """One rung of the degradation ladder."""

    stage: str                     # e.g. "initial", "chunk/8", "coarsen x2"
    detail: str                    # human-readable parameters
    elapsed: float                 # seconds spent on this attempt
    error: str | None = None       # None on success
    requested_bytes: int | None = None
    budget_bytes: int | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class ResilienceReport:
    """The retry chain of one resilient search."""

    attempts: list[AttemptRecord] = field(default_factory=list)
    succeeded: bool = False

    @property
    def degradations(self) -> tuple[str, ...]:
        """Stages tried after the caller's original request."""
        return tuple(a.stage for a in self.attempts[1:])

    @property
    def retries(self) -> int:
        return max(0, len(self.attempts) - 1)

    def summary(self) -> str:
        from ..analysis.reporting import format_resilience_report

        return format_resilience_report(self)


def coarsen_config_space(space: ConfigSpace, tables: CostTables,
                         factor: int = 2
                         ) -> tuple[ConfigSpace, CostTables]:
    """Shrink each node's configuration table by ``factor``.

    Keeps the serial configuration (row 0 — always feasible) plus the
    lowest-layer-cost candidates up to ``ceil(K / factor)`` per node,
    and slices the precomputed cost tables to match, so no cost is
    recomputed.  Strategies found in the coarsened space are valid in
    the original space (configurations are a subset) and their costs are
    directly comparable.
    """
    if factor < 2:
        raise ValueError(f"coarsening factor {factor} must be >= 2")
    keep: dict[str, np.ndarray] = {}
    new_cfg: dict[str, np.ndarray] = {}
    new_lc: dict[str, np.ndarray] = {}
    for name, tab in space.tables.items():
        k = tab.shape[0]
        k_new = max(1, -(-k // factor))
        best = np.argsort(tables.lc[name], kind="stable")[:k_new]
        idx = np.unique(np.concatenate(([0], best)))
        keep[name] = idx
        new_cfg[name] = tab[idx]
        new_lc[name] = tables.lc[name][idx]
    new_space = ConfigSpace(p=space.p, mode=space.mode, tables=new_cfg)
    new_pair = {
        (u, v): mat[np.ix_(keep[u], keep[v])]
        for (u, v), mat in tables.pair_tx.items()
    }
    # ``derived=True``: these tables are slices of another instance — the
    # on-disk table cache refuses to store them (their digest would
    # describe the original space and poison later lookups).
    new_tables = CostTables(graph=tables.graph, space=new_space,
                            machine=tables.machine, lc=new_lc,
                            pair_tx=new_pair, derived=True)
    return new_space, new_tables


def _frontier_select_attempt(
    graph: CompGraph,
    space: ConfigSpace,
    tables: CostTables,
    report: ResilienceReport,
    tracer,
    *,
    order: Sequence[str] | None,
    chunk_cells: int,
    memory_budget: int,
    ctx: "object | None",
    on_error,
) -> SearchResult | None:
    """One frontier-select rung: exact frontier at the *default* DP
    budget, then the min-cost point fitting the caller's budget.

    Returns the selected point as a `SearchResult` (its length-1
    ``frontier`` is the chosen point, so ``frontier[0].cost == cost``
    holds like everywhere else), or None after recording the failed
    attempt — both a too-big frontier DP and an unsatisfiable budget
    raise `SearchResourceError` and fall through to coarsening.
    """
    from ..api import select_point

    stage = "frontier-select"
    detail = (f"exact frontier @ default budget, "
              f"select peak_bytes<={memory_budget}")
    t0 = time.perf_counter()
    try:
        with tracer.span("resilience.attempt", stage=stage, detail=detail):
            fres = find_best_strategy(
                graph, space, tables, order=order,
                memory_budget=DEFAULT_MEMORY_BUDGET,
                chunk_cells=chunk_cells, method_name=METHOD_NAME,
                objective="frontier", ctx=ctx)
            point = select_point(fres.frontier, memory_budget)
    except SearchResourceError as err:
        report.attempts.append(AttemptRecord(
            stage=stage, detail=detail,
            elapsed=time.perf_counter() - t0, error=str(err),
            requested_bytes=err.requested_bytes,
            budget_bytes=err.budget_bytes))
        on_error.last_error = err
        return None
    report.attempts.append(AttemptRecord(
        stage=stage, detail=detail, elapsed=time.perf_counter() - t0))
    report.succeeded = True
    stats = dict(fres.stats)
    stats["resilience_retries"] = float(report.retries)
    stats["frontier_selected_peak_bytes"] = float(point.peak_bytes)
    return SearchResult(strategy=point.strategy, cost=point.cost,
                        elapsed=fres.elapsed, method=fres.method,
                        stats=stats, frontier=(point,))


def resilient_find_best_strategy(
    graph: CompGraph,
    space: ConfigSpace,
    tables: CostTables,
    *,
    order: Sequence[str] | None = None,
    memory_budget: int = DEFAULT_MEMORY_BUDGET,
    chunk_cells: int = DEFAULT_CHUNK_CELLS,
    search_fn: Callable[..., SearchResult] = find_best_strategy,
    ctx: "object | None" = None,
) -> tuple[SearchResult, ResilienceReport]:
    """Run the DP with graceful degradation instead of a hard failure.

    Returns the first successful `SearchResult` together with the
    `ResilienceReport` of every attempt.  When all rungs fail, the last
    `SearchResourceError` is re-raised with the report attached as
    ``err.report``.  ``ctx`` (a `repro.runtime.RunContext`) is forwarded
    into every rung's search, so a deadline or SIGINT stops the ladder
    mid-rung instead of grinding through the remaining ones.
    """
    tracer = tracer_of(ctx)
    report = ResilienceReport()

    def attempt(stage: str, detail: str, *, a_order, a_chunk,
                a_space, a_tables) -> SearchResult | None:
        t0 = time.perf_counter()
        extra = {} if ctx is None else {"ctx": ctx}
        try:
            with tracer.span("resilience.attempt", stage=stage,
                             detail=detail):
                result = search_fn(graph, a_space, a_tables, order=a_order,
                                   memory_budget=memory_budget,
                                   chunk_cells=a_chunk,
                                   method_name=METHOD_NAME, **extra)
        except SearchResourceError as err:
            report.attempts.append(AttemptRecord(
                stage=stage, detail=detail,
                elapsed=time.perf_counter() - t0, error=str(err),
                requested_bytes=err.requested_bytes,
                budget_bytes=err.budget_bytes))
            attempt.last_error = err  # type: ignore[attr-defined]
            return None
        report.attempts.append(AttemptRecord(
            stage=stage, detail=detail,
            elapsed=time.perf_counter() - t0))
        report.succeeded = True
        result.stats["resilience_retries"] = float(report.retries)
        return result

    attempt.last_error = None  # type: ignore[attr-defined]

    def ladder() -> SearchResult:
        cur_chunk = chunk_cells
        cur_order = order
        cur_space, cur_tables = space, tables

        res = attempt("initial",
                      f"order={'caller' if order is not None else 'generateseq'} "
                      f"chunk={chunk_cells} budget={memory_budget}",
                      a_order=cur_order, a_chunk=cur_chunk,
                      a_space=cur_space, a_tables=cur_tables)
        if res is not None:
            return res

        # Rung 2: adaptive chunk-size reduction.
        for div in (8, 64):
            smaller = max(MIN_CHUNK_CELLS, chunk_cells // div)
            if smaller >= cur_chunk:
                continue
            cur_chunk = smaller
            res = attempt(f"chunk/{div}", f"chunk={cur_chunk}",
                          a_order=cur_order, a_chunk=cur_chunk,
                          a_space=cur_space, a_tables=cur_tables)
            if res is not None:
                return res

        # Rung 3: fall back from the caller's ordering to GENERATESEQ.
        if cur_order is not None:
            cur_order = None
            res = attempt("generateseq-order", "order=generateseq",
                          a_order=None, a_chunk=cur_chunk,
                          a_space=cur_space, a_tables=cur_tables)
            if res is not None:
                return res

        # Rung 4: exact frontier-point selection under the caller's
        # budget, read as a memory cap.  Only meaningful when the budget
        # was tightened below the default — at the default the frontier
        # DP has no extra headroom to trade for exactness.
        if memory_budget < DEFAULT_MEMORY_BUDGET:
            res = _frontier_select_attempt(
                graph, cur_space, cur_tables, report, tracer,
                order=cur_order, chunk_cells=cur_chunk,
                memory_budget=memory_budget, ctx=ctx, on_error=attempt)
            if res is not None:
                return res

        # Rung 5: configuration-space coarsening, halving K each round.
        for rnd in range(1, COARSEN_ROUNDS + 1):
            if cur_space.max_size <= 1:
                break
            cur_space, cur_tables = coarsen_config_space(cur_space, cur_tables)
            res = attempt(f"coarsen x{2 ** rnd}",
                          f"K_max={cur_space.max_size} "
                          f"cells={cur_space.total_cells()}",
                          a_order=cur_order, a_chunk=cur_chunk,
                          a_space=cur_space, a_tables=cur_tables)
            if res is not None:
                return res

        err = attempt.last_error  # type: ignore[attr-defined]
        assert isinstance(err, SearchResourceError)
        err.report = report  # type: ignore[attr-defined]
        raise err

    with tracer.span("resilience") as ladder_span:
        try:
            result = ladder()
        finally:
            ladder_span.set(attempts=len(report.attempts),
                            retries=report.retries,
                            succeeded=report.succeeded)
    metrics_of(ctx).counter(
        "resilience_retries_total",
        "degradation-ladder retries past the initial attempt").inc(
            report.retries)
    return result, report
