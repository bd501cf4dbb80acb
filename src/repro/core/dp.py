"""FINDBESTSTRATEGY (paper, Fig. 4) — the tensorized dynamic program.

Implements recurrence (4):

``R(i, φ) = min_C [ H(i, φ ∪ {(v_i, C)}) + Σ_{X(j) ∈ S(i)} R(j, φ'') ]``

where ``H(i, ·)`` is the layer cost of ``v_i`` plus its transfer costs to
neighbors later in the sequence, ``S(i)`` are the connected subsets of
``v_i`` (the table of each is that of its last vertex, one of
`SequencedGraph.children`), and tables are keyed by substrategies of the
dependent set ``D(i)``.

One driver serves both objectives.  `find_best_strategy` resolves the
reduction mode (``reduce=True`` bypasses the reduction when the plain
DP's predicted cells stay below `DEFAULT_REDUCE_BYPASS_RATIO` times the
tables' own; ``"always"`` never bypasses), walks the sequenced vertices,
builds each vertex's ``H(i, ·)`` terms, accounts bytes on one ledger,
combines the root tables and back-substitutes.  Only the *state
format* — what a DP table cell holds — depends on the objective:

* ``"cost"`` — `MinTable`: the table of vertex ``i`` is a numpy array
  with one axis per vertex of ``D(i)`` (axis length = that vertex's
  configuration count) holding the min cost, plus its argmin.  All
  ``Φ_|D(i)|`` substrategies are processed as broadcast adds over
  L2-sized blocks of whole candidate rows, which keeps the exponential
  inner loop out of the Python interpreter.
* ``"frontier"`` — `repro.core.frontier.PointTable`: a CSR table of the
  non-dominated (cost, peak-bytes) points of each cell.

The memory the paper's Table I reports as "OOM" for the breadth-first
ordering is modelled by a byte budget: before materializing a table the
DP accounts its cells and raises `SearchResourceError` when the budget
would be exceeded.  It counts DP-state bytes only (live tables plus the
current vertex's allocations), never a strategy's device memory: cap
that with ``objective="frontier"`` and `repro.api.select_point`.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..obs.profile import current_metrics, current_tracer
from .configs import ConfigSpace
from .costmodel import CostTables
from .exceptions import SearchResourceError
from .frontier import Objective, PointTable, parse_objective
from .graph import CompGraph
from .sequencer import SequencedGraph
from .strategy import FrontierPoint, SearchResult, Strategy
from ._tensorops import chunked_min_argmin

__all__ = ["find_best_strategy", "dp_table_profile", "DEFAULT_MEMORY_BUDGET"]

#: Default DP memory budget (bytes).  Generous enough for every
#: GENERATESEQ-ordered benchmark in the paper; the breadth-first ordering
#: blows through it on InceptionV3 and Transformer exactly as Table I's
#: OOM entries indicate.
DEFAULT_MEMORY_BUDGET = 2 << 30

#: Cells between two checkpoint polls inside a scalar table of several
#: blocks.  It caps a block too, but a block is `kernels._BLOCK_CELLS`
#: at most, far below it.
_POLL_CELLS = 8_000_000

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


class _Ledger:
    """Live and peak DP-state bytes against the memory budget (Table I's
    OOM), shared by both state formats."""

    def __init__(self, budget: int) -> None:
        self.live = 0
        self.peak = 0
        self.budget = budget

    def check(self, extra: int, what: str, note: str = "") -> None:
        """Raise unless ``extra`` transient bytes fit; else record them in
        the high-water mark."""
        if self.live + extra > self.budget:
            raise SearchResourceError(
                f"{what} needs {extra} bytes ({self.live} live, "
                f"budget {self.budget}){note}",
                requested_bytes=self.live + extra, budget_bytes=self.budget)
        self.peak = max(self.peak, self.live + extra)

    def add(self, nbytes: int) -> None:
        self.live += nbytes
        self.peak = max(self.peak, self.live)

    def sub(self, nbytes: int) -> None:
        self.live -= nbytes


@dataclass
class _MinRecord:
    """Scalar DP state of one sequenced vertex."""

    table: np.ndarray | None       # min-cost over substrategies of D(i)
    argmin: np.ndarray             # best config index of v_i per cell


class MinTable:
    """The scalar objective's state format: per vertex a dense min-cost
    table over the substrategies of ``D(i)`` and its argmin."""

    span = "dp"          # span name and checkpoint phase
    frontier = False
    memory = None        # no memory columns for the reduction

    def __init__(self, ledger: _Ledger,
                 checkpoint: Callable[..., None] | None) -> None:
        self.ledger = ledger
        self.checkpoint = checkpoint

    def vertex(self, i: int, name: str, dep: tuple[int, ...],
               table_shape: tuple[int, ...], k: int, terms: list,
               kids: list) -> _MinRecord:
        """Minimize ``H + Σ children`` over ``v_i``'s configurations."""
        for axes, rec in kids:
            assert rec.table is not None, "child table consumed twice"
            terms.append((rec.table, axes))
        # The transient high-water mark: everything live, plus what the
        # kernel allocates (the new table and argmin, one block, and for
        # a table of several blocks the pre-sum and the term copies),
        # charged before it allocates any of it.
        reserve = functools.partial(
            self.ledger.check, what=f"DP table for vertex {name!r}",
            note=f"; |D(i)|={len(dep)}")
        # A table of several blocks polls the checkpoint every
        # `_POLL_CELLS` cells, so a budget can stop it mid-way.
        poll = None
        if self.checkpoint is not None:
            poll = functools.partial(self.checkpoint, phase=self.span, step=i)
        table, argmin = chunked_min_argmin(
            terms, dep + (i,), i, k, table_shape, _POLL_CELLS,
            poll=poll, reserve=reserve)
        # Child tables are consulted exactly once; free them.
        for _, rec in kids:
            self.ledger.sub(rec.table.nbytes)
            rec.table = None
        self.ledger.add(table.nbytes + argmin.nbytes)
        return _MinRecord(table, argmin)

    def combine(self, roots: list) -> list:
        """The one solution: the sum of the (scalar) root tables."""
        total = 0.0
        for rec in roots:
            assert rec.table is not None and rec.table.shape == ()
            total += float(rec.table)
        return [(total, None, [0] * len(roots))]

    def pick(self, rec: _MinRecord, cell: int, local: int):
        """``v_i``'s config in ``cell``; one state per cell, so every
        child is read at local index 0."""
        return int(rec.argmin.flat[cell]), itertools.repeat(0)


def find_best_strategy(
    graph: CompGraph,
    space: ConfigSpace,
    tables: CostTables,
    *,
    order: Sequence[str] | None = None,
    memory_budget: int = DEFAULT_MEMORY_BUDGET,
    method_name: str = "pase-dp",
    reduce: "bool | str" = False,
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
        Byte budget for live DP tables plus each vertex's transient;
        exceeding it raises `SearchResourceError` (Table I's "OOM").
    reduce:
        Run the exactness-preserving search-space reduction (dominance
        pruning + chain contraction, `repro.core.reduction`) first, solve
        the reduced problem, and expand the optimum back to the original
        space.  The returned cost is re-evaluated on the original tables;
        ``stats`` gains the ``reduction_*`` counters.  ``True`` (or
        ``"auto"``) applies the work-ratio auto-bypass: when the
        predicted plain-DP cells are below `DEFAULT_REDUCE_BYPASS_RATIO`
        times `CostTables.work_cells` the reduction is skipped (it could
        only add wall-clock) and the plain DP runs, with
        ``stats["reduction_bypassed"] == 1.0``.  ``"always"`` disables
        the bypass (tests pin reduction behavior with it); ``"never"``/
        ``"off"`` are spellings of ``False``.  Under the frontier
        objective the reduction is memory-aware (dominance on both axes,
        no chain contraction).
    objective:
        ``"cost"`` (default) runs the scalar DP.  ``"frontier"`` (or
        ``"frontier:eps=<float>"``) runs the same DP over Pareto point
        tables (`repro.core.frontier`): the result's ``.frontier``
        carries every non-dominated (cost, peak-bytes) pair, its method
        gains ``+frontier``, and ``strategy``/``cost`` are its min-cost
        point, with a cost bit-identical to the scalar optimum.
    ctx:
        A `repro.runtime.RunContext` supplying the cooperative
        checkpoint (composed from its budget/cancellation/journal) and
        the observability pair, which is activated for the duration of
        the search so reduction rounds and per-vertex spans land in the
        caller's trace.  The checkpoint is polled once per DP vertex
        (and per reduction round when ``reduce`` is on) with
        ``phase``/``step``/``total`` keywords, and again with
        ``phase``/``step`` every `_POLL_CELLS` (8M) cells of a scalar
        table of several blocks.  It aborts the search by raising — e.g.
        `DeadlineExceededError` or `RunInterrupted` — between vertices
        or mid-table; a table is published only once it is complete, so
        no partial state escapes.

    Returns
    -------
    SearchResult
        With ``stats`` containing ``cells`` (DP cells evaluated),
        ``peak_bytes``, ``max_dependent`` (M), and ``k_max`` (K).
    """
    obj = parse_objective(objective)
    checkpoint = None
    observed = contextlib.nullcontext()
    if ctx is not None:
        checkpoint = ctx.make_checkpoint()
        observed = ctx.observe()
    with observed:
        return _solve(
            graph, space, tables, obj, order=order,
            memory_budget=memory_budget, method_name=method_name,
            reduce=reduce, checkpoint=checkpoint)


def _solve(
    graph: CompGraph,
    space: ConfigSpace,
    tables: CostTables,
    obj: Objective,
    *,
    order: Sequence[str] | None,
    memory_budget: int,
    method_name: str,
    reduce: "bool | str",
    checkpoint: Callable[..., None] | None,
) -> SearchResult:
    """The driver behind `find_best_strategy`: the checkpoint already
    taken from the context, the observability pair ambient."""
    t0 = time.perf_counter()
    ledger = _Ledger(memory_budget)
    fmt = (PointTable(graph, space, tables, obj.eps, ledger)
           if obj.is_frontier else MinTable(ledger, checkpoint))
    mode = _resolve_reduce_mode(reduce)
    seq: SequencedGraph | None = None
    bypassed = False
    if mode == "auto":
        # Predict the plain DP's work from the sequenced graph.  Both
        # sides of the comparison are exact integers, so the decision is
        # deterministic for a given problem — never a wall-clock race.
        seq = SequencedGraph.build(graph, order)
        predicted_dp_cells = sum(dp_table_profile(seq, space))
        # When the DP is already near the tables' own size, reduction —
        # which reads at least that many cells — can only add
        # wall-clock.  Fall through to the plain DP, reusing ``seq``.
        bypassed = (predicted_dp_cells
                    < DEFAULT_REDUCE_BYPASS_RATIO * tables.work_cells())
    if mode != "off" and not bypassed:
        from .reduction import reduce_problem

        red = reduce_problem(graph, space, tables, memory=fmt.memory,
                             checkpoint=checkpoint)
        sub_order = order
        if order is not None:
            live = set(red.survivors)
            sub_order = tuple(n for n in order if n in live)
        inner = _solve(
            red.reduced_graph, red.reduced_space, red.reduced_tables, obj,
            order=sub_order, memory_budget=memory_budget,
            method_name=method_name, reduce=False, checkpoint=checkpoint)
        return red.expand_result(inner, elapsed=time.perf_counter() - t0)
    if seq is None:
        seq = SequencedGraph.build(graph, order)

    n = len(seq)
    ksize = [space.size(name) for name in seq.order]
    records: list = [None] * n
    cells = 0
    if n == 0:
        # Fully-contracted problems legitimately reach the DP with zero
        # vertices: the root-less combine is their one zero-cost
        # solution, reported with real (all-zero) counters.
        points = _back_substitute(fmt, seq, space, ksize, records)
    else:
        tracer = current_tracer()
        with tracer.span(fmt.span, vertices=n, method=method_name) as span:
            for i in range(n):
                if checkpoint is not None:
                    checkpoint(phase=fmt.span, step=i, total=n)
                name = seq.name(i)
                with tracer.span(f"{fmt.span}.vertex",
                                 name=name if tracer.enabled else ""):
                    dep = seq.dep[i]
                    table_shape = tuple(ksize[d] for d in dep)
                    terms = [(tables.lc[name], (i,))]
                    terms += [(tables.tx(name, seq.name(u)), (i, u))
                              for u in seq.later_neighbors(i)]
                    records[i] = fmt.vertex(
                        i, name, dep, table_shape, ksize[i], terms,
                        [(seq.dep[j], records[j]) for j in seq.children[i]])
                    cells += math.prod(table_shape) * ksize[i]
            points = _back_substitute(fmt, seq, space, ksize, records)
            span.set(cells=cells, peak_bytes=ledger.peak, points=len(points))

    elapsed = time.perf_counter() - t0
    stats = {
        "cells": float(cells),
        "peak_bytes": float(ledger.peak),
        "max_dependent": float(seq.max_dependent_size),
        "k_max": float(space.max_size),
        "vertices": float(n),
    }
    if fmt.frontier:
        stats["frontier_points"] = float(len(points))
        stats["frontier_max_state_points"] = float(fmt.max_state_points)
        stats["frontier_eps"] = float(fmt.eps)
        stats["frontier_cells"] = float(cells)
    if bypassed:
        # reduce="auto" decided the reduction could not pay for itself
        # on this problem; the plain DP ran instead.
        stats["reduction_bypassed"] = 1.0
    # Surface the table-construction phase (build seconds, cache hit,
    # worker count) alongside the DP's own counters.
    for key, val in tables.build_stats.items():
        stats[f"table_{key}"] = float(val)
    if n:
        metrics = current_metrics()
        metrics.counter("dp_cells_total", "DP cells evaluated").inc(cells)
        metrics.counter("dp_vertices_total", "DP vertices solved").inc(n)
        if elapsed > 0:
            metrics.gauge("dp_cells_per_second",
                          "DP cell throughput").set(cells / elapsed)
        if fmt.frontier:
            metrics.counter("frontier_points_total",
                            "Pareto-frontier points returned").inc(len(points))
    cost, _, strategy = points[0]
    return SearchResult(
        strategy=strategy,
        cost=cost,
        elapsed=elapsed,
        method=f"{method_name}+frontier" if fmt.frontier else method_name,
        stats=stats,
        frontier=(tuple(FrontierPoint(c, m, s) for c, m, s in points)
                  if fmt.frontier else ()),
    )


def _back_substitute(fmt, seq: SequencedGraph, space: ConfigSpace,
                     ksize: list[int], records: list) -> list:
    """Fig. 4's v.cfg extraction, once per root-combined solution.

    Walks from the roots down the children; each vertex's choice is read
    from the cell its dependent set's choices select.  Returns
    ``(cost, peak_bytes, Strategy)`` per solution, min-cost first.
    """
    out = []
    for cost, peak, root_locals in fmt.combine(
            [records[r] for r in seq.roots]):
        chosen: dict[int, int] = {}
        stack = list(zip(seq.roots, root_locals))
        while stack:
            v, local = stack.pop()
            cell = 0
            for d in seq.dep[v]:
                cell = cell * ksize[d] + chosen[d]
            chosen[v], child_locals = fmt.pick(records[v], cell, local)
            stack.extend(zip(seq.children[v], child_locals))
        assert len(chosen) == len(seq), "extraction did not reach every vertex"
        indices = {seq.name(v): k for v, k in chosen.items()}
        out.append((cost, peak, Strategy.from_indices(space, indices)))
    return out


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
