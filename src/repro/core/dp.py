"""FINDBESTSTRATEGY (paper, Fig. 4) — the tensorized dynamic program.

Implements recurrence (4):

``R(i, φ) = min_C [ H(i, φ ∪ {(v_i, C)}) + Σ_{X(j) ∈ S(i)} R(j, φ'') ]``

where ``H(i, ·)`` is the layer cost of ``v_i`` plus its transfer costs to
neighbors later in the sequence, ``S(i)`` are the connected subsets of
``v_i``, and tables are keyed by substrategies of the dependent set
``D(i)``.

Representation: the DP table of vertex ``i`` is a numpy array with one
axis per vertex of ``D(i)`` (axis length = that vertex's configuration
count).  All ``Φ_|D(i)`` substrategies are processed per candidate
configuration as one broadcast expression (chunked along the candidate
axis), which keeps the exponential inner loop out of the Python
interpreter entirely.

The memory the paper's Table I reports as "OOM" for the breadth-first
ordering is modelled by a byte budget: before materializing a table the
DP accounts its cells and raises `SearchResourceError` when the budget
would be exceeded.
"""

from __future__ import annotations

import contextlib
import os
import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..obs.profile import current_metrics, current_tracer
from .configs import ConfigSpace
from .costmodel import CostTables
from .exceptions import SearchResourceError
from .graph import CompGraph
from .sequencer import SequencedGraph, generate_seq
from .strategy import SearchResult, Strategy
from ._tensorops import chunked_min_argmin

__all__ = ["find_best_strategy", "dp_table_profile", "DEFAULT_MEMORY_BUDGET"]

#: Default DP memory budget (bytes).  Generous enough for every
#: GENERATESEQ-ordered benchmark in the paper; the breadth-first ordering
#: blows through it on InceptionV3 and Transformer exactly as Table I's
#: OOM entries indicate.
DEFAULT_MEMORY_BUDGET = 2 << 30

#: Max cells of the transient cost array per chunk (64 MiB of float64).
DEFAULT_CHUNK_CELLS = 8_000_000

#: Auto-bypass threshold for ``reduce=True``: the reduction runs only
#: when the predicted plain-DP work (``Σ_i K_i·Π_{d∈D(i)} K_d`` cells,
#: from `dp_table_profile`) exceeds this multiple of the cost tables'
#: own cells (`CostTables.work_cells`).  Reduction reads every table
#: cell a small number of times, so its wall-clock scales with the
#: table mass; the DP's scales with the dependent-set blowup.  When the
#: ratio is small the DP is already near its lower bound and reduction
#: can only add time (AlexNet/RNNLM chains sit at ratio ~1 at every p;
#: the branchy models pay off from ~10^2 up).  Both predictors are
#: exact integers — the bypass decision is deterministic for a given
#: problem, never a wall-clock race.
DEFAULT_REDUCE_BYPASS_RATIO = 64.0

#: Environment override for the auto-bypass ratio (a float; ``0``
#: disables bypassing, i.e. ``reduce=True`` behaves like ``"always"``).
REDUCE_BYPASS_ENV_VAR = "PASE_REDUCE_BYPASS_RATIO"


def _resolve_reduce_mode(reduce: "bool | str") -> str:
    """Normalize the ``reduce`` flag to ``"off"``/``"auto"``/``"always"``."""
    if reduce is False or reduce is None:
        return "off"
    if reduce is True:
        return "auto"
    if reduce in ("off", "never", "auto", "always"):
        return "off" if reduce == "never" else reduce
    raise ValueError(
        f"reduce must be a bool, 'auto', 'always', 'never' or 'off'; "
        f"got {reduce!r}")


def _bypass_ratio(override: float | None) -> float:
    """Effective auto-bypass ratio: explicit kwarg > env var > default."""
    if override is not None:
        return float(override)
    raw = os.environ.get(REDUCE_BYPASS_ENV_VAR)
    if raw:
        try:
            return float(raw)
        except ValueError:
            raise ValueError(
                f"{REDUCE_BYPASS_ENV_VAR} must be a float, got {raw!r}"
            ) from None
    return DEFAULT_REDUCE_BYPASS_RATIO


@dataclass
class _VertexRecord:
    """Stored DP state for one sequenced vertex."""

    axes: tuple[int, ...]          # D(i) positions labelling table axes
    table: np.ndarray | None       # min-cost over substrategies of D(i)
    argmin: np.ndarray             # best config index of v_i per cell
    children: tuple[int, ...]      # max position j of each component in S(i)


def find_best_strategy(
    graph: CompGraph,
    space: ConfigSpace,
    tables: CostTables,
    *,
    order: Sequence[str] | None = None,
    memory_budget: int = DEFAULT_MEMORY_BUDGET,
    chunk_cells: int = DEFAULT_CHUNK_CELLS,
    method_name: str = "pase-dp",
    reduce: "bool | str" = False,
    reduce_bypass_ratio: float | None = None,
    objective: str = "cost",
    ctx: "object | None" = None,
) -> SearchResult:
    """Find the minimum-cost strategy under the cost oracle ``tables``.

    Parameters
    ----------
    graph, space, tables:
        The computation graph, its configuration space, and the
        precomputed cost tables (all for the same ``p`` and machine).
    order:
        Vertex ordering; defaults to GENERATESEQ.  Passing a
        breadth-first or random ordering reproduces the paper's baselines
        — recurrence (4) is valid for any ordering (Theorem 1), only the
        table sizes change.
    memory_budget:
        Byte budget for live DP tables plus the transient cost array;
        exceeding it raises `SearchResourceError` (Table I's "OOM").
    reduce:
        Run the exactness-preserving search-space reduction (dominance
        pruning + chain contraction, `repro.core.reduction`) first, solve
        the reduced problem, and expand the optimum back to the original
        space.  The returned cost is re-evaluated on the original tables;
        ``stats`` gains the ``reduction_*`` counters.  ``True`` (or
        ``"auto"``) applies the work-ratio auto-bypass: when the
        predicted plain-DP cells are below ``reduce_bypass_ratio`` times
        `CostTables.work_cells` the reduction is skipped (it could only
        add wall-clock) and the plain DP runs, with
        ``stats["reduction_bypassed"] == 1.0``.  ``"always"`` disables
        the bypass (tests pin reduction behavior with it); ``"never"``/
        ``"off"`` are spellings of ``False``.
    reduce_bypass_ratio:
        Auto-bypass threshold override (see
        `DEFAULT_REDUCE_BYPASS_RATIO`); falls back to the
        ``PASE_REDUCE_BYPASS_RATIO`` environment variable, then the
        default.  ``0`` makes ``"auto"`` behave like ``"always"``.
    objective:
        ``"cost"`` (default) runs the scalar DP exactly as before —
        same code path, bit-identical results.  ``"frontier"`` (or
        ``"frontier:eps=<float>"``) dispatches to the Pareto-frontier
        DP (`repro.core.frontier.find_frontier_strategy`): the result's
        ``.frontier`` carries every non-dominated (cost, peak-bytes)
        pair and ``strategy``/``cost`` its min-cost point, bit-identical
        to the scalar optimum.
    ctx:
        A `repro.runtime.RunContext` supplying the cooperative
        checkpoint (composed from its budget/cancellation/journal) and
        the observability pair, which is activated for the duration of
        the search so reduction rounds and per-vertex spans land in the
        caller's trace.  The checkpoint is polled once per DP vertex
        (and per reduction round when ``reduce`` is on) with
        ``phase``/``step``/``total`` keywords; it aborts the search by
        raising — e.g. `DeadlineExceededError` or `RunInterrupted` —
        always between vertices, never mid-table, so no partial state
        escapes.

    Returns
    -------
    SearchResult
        With ``stats`` containing ``cells`` (DP cells evaluated),
        ``peak_bytes``, ``max_dependent`` (M), and ``k_max`` (K).
    """
    checkpoint = None
    observed = contextlib.nullcontext()
    if ctx is not None:
        checkpoint = ctx.make_checkpoint()
        observed = ctx.observe()
    with observed:
        if objective != "cost":
            from .frontier import find_frontier_strategy, parse_objective

            obj = parse_objective(objective)
            if not obj.is_frontier:  # "cost" spelled oddly, e.g. " cost "
                obj = None
            if obj is not None:
                return find_frontier_strategy(
                    graph, space, tables, eps=obj.eps, order=order,
                    memory_budget=memory_budget, chunk_cells=chunk_cells,
                    method_name=method_name, reduce=reduce,
                    reduce_bypass_ratio=reduce_bypass_ratio,
                    checkpoint=checkpoint)
        return _find_best_strategy(
            graph, space, tables, order=order, memory_budget=memory_budget,
            chunk_cells=chunk_cells, method_name=method_name, reduce=reduce,
            reduce_bypass_ratio=reduce_bypass_ratio, checkpoint=checkpoint)


def _find_best_strategy(
    graph: CompGraph,
    space: ConfigSpace,
    tables: CostTables,
    *,
    order: Sequence[str] | None,
    memory_budget: int,
    chunk_cells: int,
    method_name: str,
    reduce: "bool | str" = False,
    reduce_bypass_ratio: float | None = None,
    checkpoint: Callable[..., None] | None = None,
    seq: SequencedGraph | None = None,
) -> SearchResult:
    """The implementation behind `find_best_strategy`: the checkpoint
    already taken from the context, the observability pair ambient.
    ``seq`` short-circuits sequencing when the caller already built it
    (the auto-bypass path predicts DP work from the sequenced graph and
    hands it down, so a bypassed search pays only the predictor)."""
    t0 = time.perf_counter()
    mode = _resolve_reduce_mode(reduce)
    bypassed = False
    if mode == "auto":
        # Predict the plain DP's work from the sequenced graph.  Both
        # sides of the comparison are exact integers, so the decision is
        # deterministic for a given problem — never a wall-clock race.
        seq = SequencedGraph.build(
            graph, generate_seq(graph) if order is None else order)
        ratio = _bypass_ratio(reduce_bypass_ratio)
        predicted_dp_cells = sum(dp_table_profile(seq, space))
        # When the DP is already near the tables' own size, reduction —
        # which reads at least that many cells — can only add
        # wall-clock.  Fall through to the plain DP, reusing ``seq``.
        bypassed = predicted_dp_cells < ratio * tables.work_cells()
    if mode != "off" and not bypassed:
        from .reduction import reduce_problem

        red = reduce_problem(graph, space, tables, checkpoint=checkpoint)
        sub_order = order
        if order is not None:
            live = set(red.survivors)
            sub_order = tuple(n for n in order if n in live)
        inner = _find_best_strategy(
            red.reduced_graph, red.reduced_space, red.reduced_tables,
            order=sub_order, memory_budget=memory_budget,
            chunk_cells=chunk_cells, method_name=method_name,
            checkpoint=checkpoint)
        return red.expand_result(inner, elapsed=time.perf_counter() - t0)
    if seq is None:
        if order is None:
            order = generate_seq(graph)
        seq = SequencedGraph.build(graph, order)
    n = len(seq)
    if n == 0:
        # Fully-contracted problems legitimately reach the DP with zero
        # vertices; report real (all-zero) counters so downstream stats
        # processing never special-cases the empty problem.
        stats = {"cells": 0.0, "peak_bytes": 0.0, "max_dependent": 0.0,
                 "k_max": 0.0, "vertices": 0.0}
        if bypassed:
            stats["reduction_bypassed"] = 1.0
        for key, val in tables.build_stats.items():
            stats[f"table_{key}"] = float(val)
        return SearchResult(Strategy({}), 0.0, time.perf_counter() - t0,
                            method_name, stats=stats)

    ksize = np.array([space.size(name) for name in seq.order], dtype=np.int64)
    records: list[_VertexRecord | None] = [None] * n
    live_bytes = 0
    peak_bytes = 0
    cells_evaluated = 0
    tracer = current_tracer()

    with tracer.span("dp", vertices=n, method=method_name) as dp_span:
        for i in range(n):
            if checkpoint is not None:
                checkpoint(phase="dp", step=i, total=n)
            with tracer.span("dp.vertex",
                             name=seq.name(i) if tracer.enabled else ""):
                dep = seq.dep[i]
                comps = seq.connected_subsets(i)
                children = tuple(max(c) for c in comps)
                full_axes = dep + (i,)
                table_shape = tuple(int(ksize[d]) for d in dep)
                table_cells = int(np.prod(table_shape, dtype=np.int64)) if dep else 1

                # -- memory accounting (tables are float64 + int32 argmin) --------
                needed = table_cells * 12 + min(table_cells * int(ksize[i]), chunk_cells) * 8
                if live_bytes + needed > memory_budget:
                    raise SearchResourceError(
                        f"DP table for vertex {seq.name(i)!r} needs {needed} bytes "
                        f"({live_bytes} live, budget {memory_budget}); |D(i)|={len(dep)}",
                        requested_bytes=live_bytes + needed, budget_bytes=memory_budget)
                # The transient high-water mark for this vertex: everything live
                # before it, plus the new table/argmin and the chunked cost array
                # (both inside `needed` — counting them again after the
                # ``live_bytes`` update below would double-charge the table).
                peak_bytes = max(peak_bytes, live_bytes + needed)

                terms: list[tuple[np.ndarray, tuple[int, ...]]] = []
                terms.append((tables.lc[seq.name(i)], (i,)))
                for u in seq.later_neighbors(i):
                    mat = tables.tx(seq.name(i), seq.name(u))  # [K_i, K_u]
                    terms.append((mat, (i, u)))
                for j in children:
                    rec = records[j]
                    assert rec is not None and rec.table is not None, \
                        f"child table {j} consumed twice"
                    terms.append((rec.table, rec.axes))

                table, argmin = chunked_min_argmin(
                    terms, full_axes, i, int(ksize[i]), table_shape, chunk_cells)
                cells_evaluated += table_cells * int(ksize[i])

                # Child tables are consulted exactly once; free them.
                for j in children:
                    rec = records[j]
                    assert rec is not None and rec.table is not None
                    live_bytes -= rec.table.nbytes
                    rec.table = None

                records[i] = _VertexRecord(axes=dep, table=table, argmin=argmin,
                                           children=children)
                live_bytes += table.nbytes + argmin.nbytes

        # -- total cost: sum of the (scalar) root tables -----------------------
        roots = seq.roots()
        total = 0.0
        for rt in roots:
            rec = records[rt]
            assert rec is not None and rec.table is not None and rec.table.shape == ()
            total += float(rec.table)

        # -- back-substitution (Fig. 4's v.cfg extraction), iterative ----------
        chosen: dict[int, int] = {}
        stack = list(roots)
        while stack:
            i = stack.pop()
            rec = records[i]
            assert rec is not None
            idx = tuple(chosen[d] for d in rec.axes)
            chosen[i] = int(rec.argmin[idx])
            stack.extend(rec.children)
        assert len(chosen) == n, "extraction did not reach every vertex"

        dp_span.set(cells=cells_evaluated, peak_bytes=peak_bytes)

    indices = {seq.name(i): k for i, k in chosen.items()}
    strategy = Strategy.from_indices(space, indices)
    elapsed = time.perf_counter() - t0
    stats = {
        "cells": float(cells_evaluated),
        "peak_bytes": float(peak_bytes),
        "max_dependent": float(seq.max_dependent_size),
        "k_max": float(space.max_size),
        "vertices": float(n),
    }
    if bypassed:
        # reduce="auto" decided the reduction could not pay for itself
        # on this problem; the plain DP ran instead.
        stats["reduction_bypassed"] = 1.0
    # Surface the table-construction phase (build seconds, cache hit,
    # worker count) alongside the DP's own counters.
    for key, val in tables.build_stats.items():
        stats[f"table_{key}"] = float(val)
    metrics = current_metrics()
    metrics.counter("dp_cells_total", "DP cells evaluated").inc(cells_evaluated)
    metrics.counter("dp_vertices_total", "DP vertices solved").inc(n)
    if elapsed > 0:
        metrics.gauge("dp_cells_per_second",
                      "DP cell throughput").set(cells_evaluated / elapsed)
    return SearchResult(
        strategy=strategy,
        cost=total,
        elapsed=elapsed,
        method=method_name,
        stats=stats,
    )


def dp_table_profile(seq: SequencedGraph, space: ConfigSpace) -> list[int]:
    """Cells of each vertex's DP cost array, ``Π_{d ∈ D(i)} K_d · K_i``.

    A cheap predictor of the DP's time/memory for an ordering — this is
    the quantity GENERATESEQ minimizes and the Section III-C analysis
    reports (``K^{M+1}`` combinations per vertex).
    """
    sizes = []
    for i in range(len(seq)):
        cells = space.size(seq.name(i))
        for d in seq.dep[i]:
            cells *= space.size(seq.name(d))
        sizes.append(int(cells))
    return sizes
