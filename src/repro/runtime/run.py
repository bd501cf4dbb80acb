"""The hardened execution runtime: one entry point for the full pipeline.

:func:`execute_search` wraps **table build → (reduction) → DP / resilient
ladder / baseline** in a `RunBudget` with cooperative cancellation
checkpoints, optional crash-safe journaling, and structured reporting.
Every failure mode degrades instead of crashing:

* corrupt table-cache entries are quarantined and rebuilt (recorded,
  never silent);
* SIGINT/SIGTERM and deadline expiry unwind at the next checkpoint with
  the journal flushed, so ``--resume`` replays the run bit-identically —
  the resume rebuilds the tables and both the build and the DP are
  deterministic, so an interrupted-then-resumed run returns exactly the
  strategy and cost an uninterrupted run would.

All run-scoped knobs travel in one `RunContext` (``ctx=``): budget,
cancellation, journal, cache, and the observability pair.  The
context's tracer/metrics are activated for the whole pipeline, so every
phase — including baselines dispatched through the experiment machinery
— lands in the same trace; the span names mirror the `RunReport` phase
names (``run`` → ``tables`` / ``search``), with the deeper structure
(``tables.build``, ``reduction.round``, ``dp.vertex``,
``resilience.attempt``, ``baseline.*``) nested beneath them.

The terminating exception of an unsuccessful run carries the structured
`RunReport` as ``err.run_report`` so the CLI can print what happened and
exit with the documented per-failure code.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

from ..core.configs import ConfigSpace
from ..core.costmodel import CostModel, CostTables
from ..core.dp import find_best_strategy
from ..core.exceptions import (
    DeadlineExceededError,
    JournalError,
    RunInterrupted,
    SearchResourceError,
)
from ..core.graph import CompGraph
from ..core.machine import MachineSpec
from ..core.sequencer import breadth_first_seq
from ..core.strategy import SearchResult
from ..obs.profile import metrics_of, tracer_of
from .budget import Cancellation, RunBudget
from .context import RunContext
from .journal import SearchJournal
from .report import RunReport

__all__ = ["RunOutcome", "execute_search", "run_fingerprint"]

#: Fingerprint schema version (bump when fields change — a resume across
#: versions must fail loudly, not silently re-interpret old state).
#: v2: ``reduce`` became the resolved mode string ("off"/"auto"/
#: "always") and ``reduce_bypass_ratio`` records the auto-bypass
#: threshold — both can change which (equal-cost) strategy is returned,
#: so resuming across them must not silently mix paths.  The threshold
#: is the constant `DEFAULT_REDUCE_BYPASS_RATIO`; the key stays so v2
#: fingerprints keep their bytes.
#: v3: frontier runs add an ``objective`` key (and their table digest
#: covers the memory tables).  Scalar runs **stay on v2** and emit the
#: exact pre-frontier dict — cached journals and serve coalesce keys
#: must not churn for anyone not using the new objective.
_FINGERPRINT_VERSION = 2
_FINGERPRINT_VERSION_FRONTIER = 3


@dataclass
class RunOutcome:
    """Everything a successful hardened run produced."""

    result: SearchResult
    report: RunReport
    tables: CostTables | None = None
    resilience: "object | None" = None  # ResilienceReport when --resilient


def run_fingerprint(graph: CompGraph, space: ConfigSpace, model: CostModel,
                    *, method: str, seed: int, reduce: "bool | str",
                    resilient: bool, memory_budget: int,
                    order: Sequence[str] | None,
                    objective: "str | object" = "cost") -> dict:
    """Canonical description of everything the run's *answer* depends on.

    Built on `table_digest` (graph, machine, configuration space, cost
    model) plus the search parameters.  Two runs with equal fingerprints
    return bit-identical results, which is exactly the property that
    makes journal resume sound.  Deliberately excludes budgets' wall
    clocks and the table cache — those change how fast the answer
    arrives, not what it is.  The observability pair is excluded for the
    same reason: tracing a run must never change what it computes.  The
    reduce *mode* and the auto-bypass ratio are included: reduced and
    plain searches return equal costs but may pick different equal-cost
    strategies.

    ``objective="cost"`` (however spelled) emits the byte-identical v2
    dict this function always produced; frontier objectives emit v3 with
    the canonical objective string and a memory-covering table digest.
    """
    from ..core.dp import DEFAULT_REDUCE_BYPASS_RATIO, _resolve_reduce_mode
    from ..core.frontier import parse_objective
    from ..core.tablecache import table_digest

    obj = parse_objective(objective)
    mode = _resolve_reduce_mode(reduce)
    fp = {
        "version": (_FINGERPRINT_VERSION_FRONTIER if obj.is_frontier
                    else _FINGERPRINT_VERSION),
        "tables_digest": table_digest(graph, space, model,
                                      memory=obj.is_frontier),
        "method": method,
        "seed": int(seed),
        "reduce": mode,
        "reduce_bypass_ratio": (DEFAULT_REDUCE_BYPASS_RATIO if mode == "auto"
                                else None),
        "resilient": bool(resilient),
        "memory_budget": int(memory_budget),
        "order": None if order is None else list(order),
        "p": int(space.p),
        "mode": space.mode,
        "machine": model.machine.name,
    }
    if obj.is_frontier:
        fp["objective"] = obj.canonical
    return fp


def execute_search(
    graph: CompGraph,
    space: ConfigSpace,
    machine: MachineSpec,
    *,
    method: str = "ours",
    seed: int = 0,
    order: Sequence[str] | None = None,
    reduce: "bool | str" = False,
    objective: str = "cost",
    resilient: bool = False,
    ctx: RunContext | None = None,
    resume: bool = False,
) -> RunOutcome:
    """Run the full search pipeline under the hardened runtime.

    Parameters
    ----------
    graph, space, machine:
        The problem instance.
    method:
        ``"ours"`` runs the tensorized DP (optionally ``resilient`` /
        ``reduce`` / with a caller ``order``).  ``"bf"`` runs the same
        DP over a breadth-first ordering (Table I's BF column; never
        reduced, ``order`` ignored) under the same budgets.  Anything
        else dispatches to the matching baseline via
        `repro.experiments.common`.
    objective:
        ``"cost"`` (default) keeps the scalar pipeline exactly as
        before — same code path, v2 fingerprint, bit-identical results.
        ``"frontier"`` / ``"frontier:eps=<float>"`` runs the
        multi-objective DP: the tables phase also builds per-node memory
        tables (cached with the cost tables) and the result's
        ``.frontier`` carries the full (cost, peak-bytes) Pareto set.
        Either way ``RunOutcome.result.frontier`` is non-empty — scalar
        runs get a synthesized length-1 frontier holding their optimum.
    ctx:
        The run's `RunContext`: budget (deadline + DP memory),
        cancellation token (pair with `trap_signals`), crash-safe
        journal, table ``cache``, and the tracer/metrics
        pair activated around the whole pipeline.
    resume:
        Requires a journal whose fingerprint matches this run; a journal
        holding a finished search replays it without recomputing
        anything (zero-duration ``tables``/``search`` spans are still
        emitted so traces always cover every reported phase).

    Returns a `RunOutcome`; on failure raises the underlying error
    (`DeadlineExceededError`, `RunInterrupted`, `SearchResourceError`)
    with the structured `RunReport` attached as ``err.run_report`` and
    the journal flushed.
    """
    if ctx is None:
        ctx = RunContext()
    from ..core.frontier import parse_objective

    obj = parse_objective(objective)  # validate before any work
    model = CostModel(machine)
    if ctx.budget is None or ctx.cancellation is None:
        ctx = ctx.with_overrides(
            budget=ctx.budget or RunBudget(),
            cancellation=ctx.cancellation or Cancellation())
    ctx.started()
    run_budget = ctx.budget
    journal_obj = ctx.journal
    tracer = tracer_of(ctx)
    metrics = metrics_of(ctx)
    report = RunReport(
        journal_path=None if journal_obj is None else str(journal_obj.path))

    fingerprint = run_fingerprint(
        graph, space, model, method=method, seed=seed, reduce=reduce,
        resilient=resilient, memory_budget=run_budget.memory_budget,
        order=order, objective=obj)

    with ctx.observe(), tracer.span(
            "run", method=method, p=space.p, reduce=str(reduce),
            resilient=resilient, resume=resume) as run_span:
        if journal_obj is None:
            if resume:
                raise JournalError("--resume requires a journal "
                                   "(pass a RunContext journal / "
                                   "--journal-dir)")
        else:
            report.resumed = journal_obj.open(fingerprint, resume=resume)
            if report.resumed:
                prior = journal_obj.load_result()
                if prior is not None:
                    # The journalled search finished: replay it verbatim,
                    # with zero-work phase spans so the trace still covers
                    # everything the report records.
                    for ev in journal_obj.events:
                        report.degrade(f"{ev['kind']}: {ev['detail']}")
                    for name in ("tables", "search"):
                        with tracer.span(name, replayed=True):
                            pass
                        report.add_phase(name, 0.0, "journal")
                    prior = _ensure_frontier(prior, graph, space)
                    report.best_cost = prior.cost
                    run_span.set(best_cost=prior.cost, replayed=True)
                    return RunOutcome(result=prior, report=report)

        phase = ["tables", time.perf_counter()]

        def _enter(name: str) -> float:
            phase[0] = name
            phase[1] = time.perf_counter()
            return phase[1]

        try:
            # -- phase 1: cost tables ------------------------------------
            _enter("tables")
            with tracer.span("tables"):
                tables = model.build_tables(graph, space, ctx=ctx,
                                            memory=obj.is_frontier)
                status = ("cache-hit"
                          if tables.build_stats.get("cache_hit") else "ok")
                quarantined = getattr(ctx.cache, "quarantined", 0)
                if quarantined:
                    msg = (f"quarantined {quarantined} corrupt table-cache "
                           f"entr{'y' if quarantined == 1 else 'ies'} "
                           "and rebuilt")
                    report.degrade(msg)
                    metrics.counter(
                        "table_cache_quarantined_total",
                        "corrupt table-cache entries quarantined").inc(
                            quarantined)
                    if journal_obj is not None:
                        journal_obj.event("cache-quarantine", msg)
            report.add_phase("tables", time.perf_counter() - phase[1], status)
            if journal_obj is not None:
                journal_obj.phase_done(
                    "tables", digest=fingerprint["tables_digest"])

            # -- phase 2: the search itself -------------------------------
            _enter("search")
            resilience = None
            with tracer.span("search"):
                if method in ("ours", "bf"):
                    dp_kwargs = dict(
                        order=order, memory_budget=run_budget.memory_budget,
                        reduce=reduce, objective=obj.canonical, ctx=ctx)
                    if method == "bf":
                        # Table I's BF column: the same DP over a
                        # breadth-first ordering, never reduced.
                        dp_kwargs.update(order=breadth_first_seq(graph),
                                         reduce=False)
                    if resilient:
                        from ..resilience import resilient_find_best_strategy

                        result, resilience = resilient_find_best_strategy(
                            graph, space, tables, **dp_kwargs)
                        if resilience.retries:
                            msg = ("resilient ladder degraded "
                                   f"{resilience.retries}x: "
                                   + ", ".join(resilience.degradations))
                            report.degrade(msg)
                            if journal_obj is not None:
                                journal_obj.event("search-degraded", msg)
                    else:
                        result = find_best_strategy(
                            graph, space, tables, method_name=(
                                "naive-bf" if method == "bf" else "pase-dp"),
                            **dp_kwargs)
                else:
                    result = _run_baseline(graph, space, tables, machine,
                                           method, seed, reduce)
            if "table_build_seconds" not in result.stats:
                result = result.with_stats(
                    **{f"table_{k}": float(v)
                       for k, v in tables.build_stats.items()})
            report.add_phase("search", time.perf_counter() - phase[1], "ok")
            report.best_cost = result.cost
            run_span.set(best_cost=result.cost)
            if journal_obj is not None:
                # Journal the raw result: scalar runs keep the exact
                # pre-frontier schema (their length-1 frontier is
                # synthesized, not stored).
                journal_obj.record_result(result)
            result = _ensure_frontier(result, graph, space)
            return RunOutcome(result=result, report=report, tables=tables,
                              resilience=resilience)

        except RunInterrupted as err:
            _finalize_failure(report, journal_obj, "interrupted", err,
                              phase[0], time.perf_counter() - phase[1])
            raise
        except DeadlineExceededError as err:
            _finalize_failure(report, journal_obj, "deadline", err,
                              phase[0], time.perf_counter() - phase[1])
            raise
        except SearchResourceError as err:
            _finalize_failure(report, journal_obj, "resource-error", err,
                              phase[0], time.perf_counter() - phase[1])
            raise


def _ensure_frontier(result: SearchResult, graph: CompGraph,
                     space: ConfigSpace) -> SearchResult:
    """Uniform ``.frontier`` access: scalar results gain a synthesized
    length-1 frontier holding their optimum (frontier runs already carry
    the full set — returned unchanged)."""
    if result.frontier:
        return result
    from dataclasses import replace

    from ..core.frontier import strategy_peak_bytes
    from ..core.strategy import FrontierPoint

    point = FrontierPoint(
        cost=result.cost,
        peak_bytes=strategy_peak_bytes(graph, space, result.strategy),
        strategy=result.strategy)
    return replace(result, frontier=(point,))


def _run_baseline(graph: CompGraph, space: ConfigSpace, tables: CostTables,
                  machine: MachineSpec, method: str, seed: int,
                  reduce: bool) -> SearchResult:
    """Dispatch non-DP methods through the shared experiment machinery
    (baselines run between checkpoints; MCMC carries its own budget).
    The ambient tracer is already active, so the baselines' ``@profiled``
    spans land under this run's ``search`` span."""
    from ..experiments.common import BenchSetup, search_with

    setup = BenchSetup(graph=graph, p=space.p, machine=machine, space=space,
                       tables=tables)
    return search_with(setup, method, seed=seed, reduce=reduce)


def _finalize_failure(report: RunReport, journal: SearchJournal | None,
                      outcome: str, err: BaseException,
                      phase_name: str, phase_seconds: float) -> None:
    """Flush the journal, stamp the report, attach it to the error."""
    report.outcome = outcome
    report.detail = str(err)
    report.add_phase(phase_name, phase_seconds, outcome)
    if journal is not None:
        prior = journal.load_result()
        if prior is not None:
            report.best_cost = prior.cost
        journal.flush()
    err.run_report = report  # type: ignore[attr-defined]
