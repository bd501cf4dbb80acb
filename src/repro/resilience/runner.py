"""Graceful degradation for the strategy search.

`repro.core.dp.find_best_strategy` raises `SearchResourceError` the
moment a DP table would blow its byte budget — correct for reproducing
Table I's OOM entries, useless for a production planner that must return
*some* strategy.  :func:`resilient_find_best_strategy` wraps the DP in a
degradation ladder and records every rung in a `ResilienceReport`:

1. **as requested** — the caller's ordering and budget;
2. **ordering fallback** — if the caller forced a non-default ordering
   (e.g. the breadth-first baseline), fall back to GENERATESEQ, which
   minimizes dependent-set sizes and hence table bytes (Theorem 1 makes
   any ordering valid, so this degrades table size, not correctness);
3. **configuration-space coarsening** — repeatedly halve each node's
   configuration count, keeping the serial configuration plus the
   lowest-layer-cost candidates.  Table bytes scale as ``K^{|D(i)|}``,
   so each halving cuts them exponentially; the cost optimum is now over
   a pruned space (a documented approximation, reported as such).

The budget means DP-state bytes on every rung, as it does for
`find_best_strategy`; a cap on a strategy's device memory is a separate
question, answered by ``objective="frontier"`` and
`repro.api.select_point`.  Every rung is one attempt of
`find_best_strategy` with the caller's ``reduce=`` and ``objective=``,
timed, traced and recorded the same way.  Only when every rung fails
does the final `SearchResourceError` propagate, with the full retry
chain attached as ``err.report``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..core.configs import ConfigSpace
from ..core.costmodel import CostTables
from ..core.dp import DEFAULT_MEMORY_BUDGET, find_best_strategy
from ..core.exceptions import SearchResourceError
from ..core.graph import CompGraph
from ..core.strategy import SearchResult
from ..obs.profile import metrics_of, tracer_of

__all__ = ["AttemptRecord", "ResilienceReport", "coarsen_config_space",
           "resilient_find_best_strategy"]

#: Halvings of the configuration space the last rung tries.
COARSEN_ROUNDS = 3

#: ``SearchResult.method`` of every answer the ladder returns.
METHOD_NAME = "pase-dp-resilient"


@dataclass(frozen=True)
class AttemptRecord:
    """One rung of the degradation ladder."""

    stage: str                     # e.g. "initial", "coarsen x2"
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


def coarsen_config_space(space: ConfigSpace, tables: CostTables
                         ) -> tuple[ConfigSpace, CostTables]:
    """Halve each node's configuration table.

    Keeps the serial configuration (row 0 — always feasible) plus the
    lowest-layer-cost candidates up to ``ceil(K / 2)`` per node,
    and slices the precomputed cost tables to match, so no cost is
    recomputed.  Strategies found in the coarsened space are valid in
    the original space (configurations are a subset) and their costs are
    directly comparable.
    """
    keep: dict[str, np.ndarray] = {}
    new_cfg: dict[str, np.ndarray] = {}
    new_lc: dict[str, np.ndarray] = {}
    for name, tab in space.tables.items():
        k = tab.shape[0]
        k_new = -(-k // 2)
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


def resilient_find_best_strategy(
    graph: CompGraph,
    space: ConfigSpace,
    tables: CostTables,
    *,
    order: Sequence[str] | None = None,
    memory_budget: int = DEFAULT_MEMORY_BUDGET,
    reduce: "bool | str" = False,
    objective: str = "cost",
    ctx: "object | None" = None,
) -> tuple[SearchResult, ResilienceReport]:
    """Run the DP with graceful degradation instead of a hard failure.

    Returns the first successful `SearchResult` together with the
    `ResilienceReport` of every attempt.  When all rungs fail, the last
    `SearchResourceError` is re-raised with the report attached as
    ``err.report``.  ``reduce`` and ``objective`` are passed to every
    rung's `find_best_strategy`.  ``ctx`` (a `repro.runtime.RunContext`)
    is forwarded into every rung's search, so a deadline or SIGINT stops
    the ladder mid-rung instead of grinding through the remaining ones.
    """
    tracer = tracer_of(ctx)
    report = ResilienceReport()
    last_error: SearchResourceError | None = None

    def attempt(stage: str, detail: str, a_order, a_space,
                a_tables) -> SearchResult | None:
        nonlocal last_error
        t0 = time.perf_counter()
        try:
            with tracer.span("resilience.attempt", stage=stage,
                             detail=detail):
                result = find_best_strategy(
                    graph, a_space, a_tables, order=a_order,
                    memory_budget=memory_budget, method_name=METHOD_NAME,
                    reduce=reduce, objective=objective, ctx=ctx)
        except SearchResourceError as err:
            report.attempts.append(AttemptRecord(
                stage=stage, detail=detail,
                elapsed=time.perf_counter() - t0, error=str(err),
                requested_bytes=err.requested_bytes,
                budget_bytes=err.budget_bytes))
            last_error = err
            return None
        report.attempts.append(AttemptRecord(
            stage=stage, detail=detail,
            elapsed=time.perf_counter() - t0))
        report.succeeded = True
        result.stats["resilience_retries"] = float(report.retries)
        return result

    def ladder() -> SearchResult:
        res = attempt("initial",
                      f"order={'caller' if order is not None else 'generateseq'} "
                      f"budget={memory_budget}",
                      order, space, tables)
        if res is not None:
            return res

        # Rung 2: fall back from the caller's ordering to GENERATESEQ.
        if order is not None:
            res = attempt("generateseq-order", "order=generateseq",
                          None, space, tables)
            if res is not None:
                return res

        # Rung 3: configuration-space coarsening, halving K each round.
        cur_space, cur_tables = space, tables
        for rnd in range(1, COARSEN_ROUNDS + 1):
            if cur_space.max_size <= 1:
                break
            cur_space, cur_tables = coarsen_config_space(cur_space, cur_tables)
            res = attempt(f"coarsen x{2 ** rnd}",
                          f"K_max={cur_space.max_size} "
                          f"cells={cur_space.total_cells()}",
                          None, cur_space, cur_tables)
            if res is not None:
                return res

        assert last_error is not None
        last_error.report = report  # type: ignore[attr-defined]
        raise last_error

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
