"""Exact search-space reduction: dominance pruning + chain contraction.

Runs between cost-table construction and the dynamic program and shrinks
the DP's two exponential drivers — the per-node configuration count ``K``
and the vertex count ``n`` — *without* changing the optimum:

* **Configuration dominance pruning.**  Configuration ``c`` of node ``v``
  is dropped when some ``c'`` has ``lc[c'] <= lc[c]`` and, on every edge
  incident to ``v``, elementwise row domination ``tx[c', :] <= tx[c, :]``
  — strict somewhere, with a deterministic lexicographic tie-break so
  that among exactly-equal rows the lowest index (row 0, the serial
  configuration) survives.  Any strategy using ``c`` can swap in ``c'``
  without increasing any term of Equation (1), so at least one optimum
  survives the prune.

* **Linear-chain contraction.**  A vertex ``w`` with at most two distinct
  pair-neighbors is eliminated by folding ``lc[w] + tx`` into a reduced
  edge matrix via a min-over-``K_w`` contraction (TensorOpt-style node
  elimination): ``tx'(u, v)[k_u, k_v] = min_{k_w} (lc[w][k_w] +
  tx(u, w)[k_u, k_w] + tx(w, v)[k_w, k_v])``, accumulated onto any
  existing ``(u, v)`` matrix.  The per-cell argmin is recorded so the
  reduced-space optimum expands back to a full `Strategy` with identical
  cost.  Degree-1 vertices fold into their neighbor's ``lc`` and
  degree-0 vertices into a constant, so long elementwise/activation
  chains disappear entirely.

Both rules are iterated to a fixed point (contraction creates new edges
that enable more dominance and vice versa).  The result is a
`ReducedProblem`: a reduced configuration space, projected cost tables
(marked ``derived`` so the on-disk table cache refuses them), index
back-maps for the surviving nodes, and the elimination records needed to
expand a reduced strategy.

Exactness bookkeeping for the expansion: each elimination record's table
is indexed by its dependency axes *in the dependency's reduced space at
that moment*; later dominance prunes of a still-live dependency slice the
recorded axis, so at the end every axis is either in the dependency's
final reduced space (if it survived) or in its own elimination-time space
(if it was eliminated later — in which case expanding in reverse
elimination order supplies exactly that index).

Performance: the fixed point runs in **vectorized** form by default —
the dominance keep-mask and the contraction fold dispatch through
`repro.core.kernels` (a witness-first candidate-pair sieve, a min-plus
fold in L2-sized blocks reduced over the last, contiguous axis), and a
dirty-set worklist skips nodes whose cost profile is untouched since
their last prune (re-pruning an unchanged profile provably keeps every
row, so skipping is exact).  The pre-vectorization per-vertex code is
retained verbatim behind ``vectorized=False`` /
:func:`dominance_keep_mask_reference` as the bit-identity oracle for
the property tests.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from . import kernels
from .configs import ConfigSpace
from .costmodel import CostTables, _canonical
from .exceptions import StrategyError
from .graph import CompGraph
from .strategy import FrontierPoint, SearchResult, Strategy

__all__ = ["ReducedProblem", "ReducedGraphView", "reduce_problem",
           "dominance_keep_mask", "dominance_keep_mask_reference"]

#: Transient-cell budget for the vectorized dominance comparison and the
#: chain-contraction cube (keeps peak extra memory in the tens of MiB).
_REDUCTION_CHUNK_CELLS = 4_000_000


class ReducedGraphView:
    """Adjacency-only stand-in for `CompGraph` over the surviving nodes.

    Chain contraction creates edges between nodes that share no tensor, so
    the reduced topology cannot be expressed as a `CompGraph` (whose edges
    carry typed ports).  The DP only consults ``node_names`` and
    ``neighbors``, which this view provides.
    """

    def __init__(self, node_names: Sequence[str],
                 neighbors: Mapping[str, Iterable[str]]) -> None:
        self._names = tuple(node_names)
        self._nbrs = {n: tuple(neighbors.get(n, ())) for n in self._names}

    @property
    def node_names(self) -> tuple[str, ...]:
        return self._names

    def neighbors(self, name: str) -> tuple[str, ...]:
        return self._nbrs[name]

    def degree(self, name: str) -> int:
        return len(self._nbrs[name])

    def __len__(self) -> int:
        return len(self._names)

    def __contains__(self, name: str) -> bool:
        return name in self._nbrs


@dataclass
class _ElimRecord:
    """One contracted vertex: how to recover its optimal configuration.

    ``table`` holds the argmin over the eliminated vertex's (reduced)
    configurations, with one axis per entry of ``deps``; ``sel`` maps the
    vertex's elimination-time reduced index back to its original index.
    """

    node: str
    deps: tuple[str, ...]
    table: np.ndarray  # int32, shape = deps' reduced sizes (0-d for deps=())
    sel: np.ndarray    # elimination-time reduced index -> original index


@dataclass
class ReducedProblem:
    """A search problem shrunk by exactness-preserving reduction.

    Attributes
    ----------
    graph, space, tables:
        The *original* problem (the expansion target).
    reduced_graph, reduced_space, reduced_tables:
        The shrunk problem the DP actually runs on.  ``reduced_tables``
        is marked ``derived`` so the table cache refuses to store it.
    base_cost:
        Constant folded out of the objective by degree-0 eliminations.
    config_maps:
        Surviving node -> int64 array mapping reduced configuration index
        to original index.
    stats:
        ``reduction_*`` counters (configs/vertices/cells removed, rounds,
        seconds) surfaced through ``SearchResult.stats``.
    """

    graph: CompGraph
    space: ConfigSpace
    tables: CostTables
    reduced_graph: ReducedGraphView
    reduced_space: ConfigSpace
    reduced_tables: CostTables
    base_cost: float
    config_maps: dict[str, np.ndarray]
    elims: tuple[_ElimRecord, ...]
    stats: dict[str, float] = field(default_factory=dict)

    @property
    def survivors(self) -> tuple[str, ...]:
        return self.reduced_graph.node_names

    def expand_indices(self, reduced: Mapping[str, int]) -> dict[str, int]:
        """Map a reduced-space strategy to original configuration indices
        for *every* node of the original graph."""
        missing = set(self.survivors) - set(reduced)
        if missing:
            raise StrategyError(
                f"reduced strategy missing nodes: {sorted(missing)[:5]}")
        cur: dict[str, int] = {n: int(reduced[n]) for n in self.survivors}
        # Reverse elimination order: a record's dependencies were either
        # never eliminated (final reduced index, axes kept sliced) or
        # eliminated later (their record, processed first, supplies their
        # elimination-time index — the space this record's axis is in).
        for rec in reversed(self.elims):
            idx = tuple(cur[d] for d in rec.deps)
            cur[rec.node] = int(rec.table[idx])
        by_elim = {rec.node: rec for rec in self.elims}
        out: dict[str, int] = {}
        for name in self.space.tables:  # original node order
            rec = by_elim.get(name)
            if rec is None:
                out[name] = int(self.config_maps[name][cur[name]])
            else:
                out[name] = int(rec.sel[cur[name]])
        return out

    def expand_result(self, inner: SearchResult, *,
                      elapsed: float | None = None) -> SearchResult:
        """Lift a reduced-space `SearchResult` back to the original space.

        Each returned cost is re-evaluated on the *original* tables (one
        exact pass), and checked against the reduced cost plus the
        folded constant — the exactness invariant of the whole engine.
        Every point of ``inner.frontier`` is lifted the same way (a
        frontier reduction never contracts, so peak bytes carry over);
        a scalar result keeps ``frontier=()``.
        """
        def lift(strategy: Strategy, reduced_cost: float
                 ) -> tuple[Strategy, float]:
            full_idx = self.expand_indices(
                strategy.to_indices(self.reduced_space))
            cost = self.tables.strategy_cost(full_idx)
            predicted = reduced_cost + self.base_cost
            if not math.isclose(cost, predicted, rel_tol=1e-6, abs_tol=1e-6):
                raise StrategyError(
                    f"reduction exactness violated: expanded cost {cost!r} "
                    f"!= reduced cost {reduced_cost!r} + base "
                    f"{self.base_cost!r}")
            return Strategy.from_indices(self.space, full_idx), cost

        frontier = []
        for pt in inner.frontier:
            strategy, cost = lift(pt.strategy, pt.cost)
            frontier.append(FrontierPoint(cost=cost, peak_bytes=pt.peak_bytes,
                                          strategy=strategy))
        if frontier:
            strategy, cost = frontier[0].strategy, frontier[0].cost
        else:
            strategy, cost = lift(inner.strategy, inner.cost)
        lifted = SearchResult(
            strategy=strategy,
            cost=cost,
            elapsed=inner.elapsed if elapsed is None else elapsed,
            method=f"{inner.method}+reduce",
            stats=dict(inner.stats),
            frontier=tuple(frontier),
        )
        return lifted.with_stats(**self.stats)


# ---------------------------------------------------------------------------
# Dominance pruning
# ---------------------------------------------------------------------------

def dominance_keep_mask(profile: np.ndarray, *,
                        chunk_cells: int = _REDUCTION_CHUNK_CELLS
                        ) -> np.ndarray:
    """Boolean keep-mask over the rows of a cost ``profile`` ``[K, C]``.

    Row ``j`` is dropped when some row ``i`` is elementwise ``<=`` and
    either strictly smaller somewhere or (on exact ties) ``i < j``.  The
    "beats" relation is a strict partial order, so every dropped row has
    a surviving dominator and at least one optimum survives; the
    lexicographic tie-break makes row 0 survive any all-equal class.

    Dispatches to `repro.core.kernels.dominance_mask`: a ``[K, K]``
    candidate relation from the row sums and the first few columns
    (``>=`` is its transpose, never materialized); then each row's
    witness, its smallest-sum candidate, is verified on the remaining
    columns, and a row whose witness passes is dropped; the
    candidate-pair sieve runs only among the rows left.  Every gather
    transient is bounded by ``chunk_cells`` cells, including the ``K*C >
    chunk_cells`` regime the pre-vectorization implementation silently
    exceeded.  Bit-identical to :func:`dominance_keep_mask_reference`.
    """
    return kernels.dominance_mask(profile, chunk_cells=chunk_cells)


def dominance_keep_mask_reference(profile: np.ndarray, *,
                                  chunk_cells: int = _REDUCTION_CHUNK_CELLS
                                  ) -> np.ndarray:
    """The pre-vectorization keep-mask, retained as the parity oracle."""
    prof = np.ascontiguousarray(profile, dtype=np.float64)
    k, c = prof.shape
    if k <= 1:
        return np.ones(k, dtype=bool)
    dominated = np.zeros(k, dtype=bool)
    rows_i = np.arange(k)[:, None]
    chunk = max(1, chunk_cells // max(k * c, 1))
    for j0 in range(0, k, chunk):
        j1 = min(k, j0 + chunk)
        block = prof[j0:j1]                                   # [c0, C]
        le = (prof[:, None, :] <= block[None, :, :]).all(-1)  # [K, c0]
        ge = (prof[:, None, :] >= block[None, :, :]).all(-1)
        beats = le & (~ge | (rows_i < np.arange(j0, j1)[None, :]))
        dominated[j0:j1] |= beats.any(axis=0)
    return ~dominated


# ---------------------------------------------------------------------------
# The reduction engine
# ---------------------------------------------------------------------------

class _Reducer:
    """Mutable reduction state iterated to a fixed point.

    ``vectorized`` selects the kernel-dispatched fast path plus the
    dirty-set worklist; ``False`` replays the pre-vectorization
    per-vertex code exactly (the parity oracle for the property tests).
    Both paths visit nodes in the same order and produce bit-identical
    ``lc``/``tx``/``sel``/``elims``/``base_cost``: the worklist only
    skips prunes that provably keep every row (a node's survivors are
    mutually non-dominated, so re-pruning an unchanged profile is a
    no-op), and every kernel preserves scalar association and argmin
    tie-break.
    """

    def __init__(self, graph: CompGraph, space: ConfigSpace,
                 tables: CostTables, *, vectorized: bool = True,
                 memory: "Mapping[str, np.ndarray] | None" = None) -> None:
        self.space = space
        self.vectorized = vectorized
        self.order = tuple(space.tables)  # deterministic node order
        self.lc: dict[str, np.ndarray] = {
            n: np.array(tables.lc[n], dtype=np.float64) for n in self.order}
        #: Per-node per-config memory columns (frontier objective): when
        #: set, dominance must respect *both* axes — a config survives
        #: unless some other config beats it on cost everywhere *and* on
        #: memory, so every (cost, peak-bytes) frontier value survives.
        self.mem: dict[str, np.ndarray] | None = None
        if memory is not None:
            self.mem = {n: np.ascontiguousarray(memory[n], dtype=np.float64)
                        for n in self.order}
        self.tx: dict[tuple[str, str], np.ndarray] = {
            key: np.array(mat, dtype=np.float64)
            for key, mat in tables.pair_tx.items()}
        self.adj: dict[str, set[str]] = {n: set() for n in self.order}
        for (u, v) in self.tx:
            self.adj[u].add(v)
            self.adj[v].add(u)
        self.sel: dict[str, np.ndarray] = {
            n: np.arange(space.size(n), dtype=np.int64) for n in self.order}
        self.elims: list[_ElimRecord] = []
        self.base_cost = 0.0
        self.configs_removed = 0
        #: Nodes whose profile (lc column or an incident tx matrix) may
        #: have changed since their last dominance prune.
        self.dirty: set[str] = set(self.order)

    # -- helpers -----------------------------------------------------------

    def _mat(self, u: str, v: str) -> np.ndarray:
        """Transfer matrix oriented ``[K_u, K_v]``."""
        key, flip = _canonical(u, v)
        mat = self.tx[key]
        return mat.T if flip else mat

    def _set_mat(self, u: str, v: str, mat: np.ndarray) -> None:
        key, flip = _canonical(u, v)
        self.tx[key] = mat.T if flip else mat

    def _drop_pair(self, u: str, v: str) -> None:
        del self.tx[_canonical(u, v)[0]]
        self.adj[u].discard(v)
        self.adj[v].discard(u)

    def _slice_records(self, name: str, keep: np.ndarray) -> None:
        """Keep pending elimination tables aligned with a pruned axis."""
        for rec in self.elims:
            for ax, dep in enumerate(rec.deps):
                if dep == name:
                    rec.table = np.compress(keep, rec.table, axis=ax)

    # -- dominance ---------------------------------------------------------

    def prune_node(self, name: str) -> bool:
        """Dominance-prune one node's configurations; True if any dropped."""
        self.dirty.discard(name)
        k = self.lc[name].shape[0]
        if k <= 1:
            return False
        cols = [self.lc[name][:, None]]
        if self.mem is not None:
            cols.append(self.mem[name][:, None])
        for u in sorted(self.adj[name]):
            cols.append(self._mat(name, u))
        mask_fn = (dominance_keep_mask if self.vectorized
                   else dominance_keep_mask_reference)
        keep = mask_fn(np.concatenate(cols, axis=1))
        if keep.all():
            return False
        self.configs_removed += int(k - keep.sum())
        self.lc[name] = self.lc[name][keep]
        if self.mem is not None:
            self.mem[name] = self.mem[name][keep]
        self.sel[name] = self.sel[name][keep]
        for u in self.adj[name]:
            self._set_mat(name, u, self._mat(name, u)[keep])
            # u's profile lost columns -> previously-kept rows may now
            # be dominated; revisit it.
            self.dirty.add(u)
        self._slice_records(name, keep)
        return True

    # -- contraction -------------------------------------------------------

    def eliminate_node(self, name: str) -> bool:
        """Contract one degree-<=2 node; True on success."""
        nbrs = sorted(self.adj[name])
        lc_w = self.lc[name]
        if len(nbrs) == 0:
            arg = np.int32(np.argmin(lc_w)) if lc_w.size else np.int32(0)
            self.base_cost += float(lc_w[arg]) if lc_w.size else 0.0
            table: np.ndarray = np.array(arg, dtype=np.int32)
            deps: tuple[str, ...] = ()
        elif len(nbrs) == 1:
            u = nbrs[0]
            prof = self._mat(u, name) + lc_w[None, :]        # [K_u, K_w]
            if self.vectorized:
                vals, table = kernels.last_axis_min_argmin(prof)
            else:
                table = prof.argmin(axis=1).astype(np.int32)
                vals = prof.min(axis=1)
            self.lc[u] = self.lc[u] + vals
            self._drop_pair(u, name)
            deps = (u,)
        else:
            u, v = nbrs
            mat_uw = self._mat(u, name)                      # [K_u, K_w]
            mat_wv = self._mat(name, v)                      # [K_w, K_v]
            if self.vectorized:
                # Pre-fold lc[w] into the (w, v) side and transpose so the
                # kernel reduces over the last, contiguous axis; the scalar
                # association stays uw + (lc + wv), as in the reference.
                bt = np.ascontiguousarray((lc_w[:, None] + mat_wv).T)
                folded, table = kernels.min_plus_fold(
                    mat_uw, bt, chunk_cells=_REDUCTION_CHUNK_CELLS)
            else:
                folded, table = _min_over_middle(lc_w, mat_uw, mat_wv)
            self._drop_pair(u, name)
            self._drop_pair(name, v)
            if v in self.adj[u]:
                self._set_mat(u, v, self._mat(u, v) + folded)
            else:
                self._set_mat(u, v, folded)
                self.adj[u].add(v)
                self.adj[v].add(u)
            deps = (u, v)
        self.elims.append(_ElimRecord(
            node=name, deps=deps, table=table, sel=self.sel[name].copy()))
        del self.lc[name], self.sel[name], self.adj[name]
        self.dirty.discard(name)
        for u in nbrs:
            # The neighbor absorbed lc/edge mass; its profile changed.
            self.dirty.add(u)
        return True

    # -- accounting --------------------------------------------------------

    def work_cells(self) -> int:
        """Live table cells: ``Σ K_v + Σ K_u · K_v`` over surviving nodes."""
        return int(sum(a.shape[0] for a in self.lc.values())
                   + sum(m.size for m in self.tx.values()))


def _min_over_middle(lc_w: np.ndarray, mat_uw: np.ndarray,
                     mat_wv: np.ndarray,
                     chunk_cells: int = _REDUCTION_CHUNK_CELLS
                     ) -> tuple[np.ndarray, np.ndarray]:
    """``min/argmin over k_w`` of ``lc_w + tx(u,w) + tx(w,v)``, chunked.

    Returns ``(folded [K_u, K_v], argmin [K_u, K_v] int32)``; the cube is
    evaluated in row-chunks of ``K_u`` so the transient stays within
    ``chunk_cells`` cells.
    """
    ku, kw = mat_uw.shape
    kv = mat_wv.shape[1]
    folded = np.empty((ku, kv), dtype=np.float64)
    arg = np.empty((ku, kv), dtype=np.int32)
    rows = max(1, chunk_cells // max(kw * kv, 1))
    mid = lc_w[None, :, None] + mat_wv[None, :, :]           # [1, K_w, K_v]
    for a0 in range(0, ku, rows):
        a1 = min(ku, a0 + rows)
        cube = mat_uw[a0:a1, :, None] + mid                  # [rows, K_w, K_v]
        folded[a0:a1] = cube.min(axis=1)
        arg[a0:a1] = cube.argmin(axis=1)
    return folded, arg


def reduce_problem(graph: CompGraph, space: ConfigSpace, tables: CostTables,
                   *, dominance: bool = True, contraction: bool = True,
                   max_rounds: int = 64, vectorized: bool = True,
                   memory: "Mapping[str, np.ndarray] | None" = None,
                   checkpoint: "Callable[..., None] | None" = None,
                   ) -> ReducedProblem:
    """Shrink a search problem by dominance pruning and chain contraction.

    Iterates both rules to a fixed point (or ``max_rounds``).  The
    reduction is exactness-preserving: the reduced problem's optimum plus
    ``base_cost`` equals the original optimum, and
    :meth:`ReducedProblem.expand_indices` recovers a witnessing strategy.
    Runs *after* any table-cache lookup, so cached tables stay canonical.
    ``vectorized=False`` replays the pre-kernel per-vertex implementation
    (the parity oracle; bit-identical output, much slower).
    ``memory`` switches the reduction to the frontier objective: per-node
    per-config memory columns (``name -> float64 [K]``) join the
    dominance profile so pruning respects *both* axes, and chain
    contraction — whose min-fold is scalar-objective and would collapse
    the memory axis — is auto-disabled; the stats record both decisions
    (``reduction_memory_aware`` / ``reduction_contraction_disabled``),
    and the pruned columns become ``reduced_tables.mem``.
    ``checkpoint`` (`repro.runtime.make_checkpoint`) is polled once per
    fixed-point round; it aborts by raising, always between rounds.
    Spans and counters go to the ambient observability pair.
    """
    from ..obs.profile import metrics_of, tracer_of

    tracer = tracer_of()
    t0 = time.perf_counter()
    contraction_disabled = bool(contraction and memory is not None)
    if memory is not None:
        contraction = False
    red = _Reducer(graph, space, tables, vectorized=vectorized,
                   memory=memory)
    cells_before = red.work_cells()
    n_before = len(red.order)

    rounds = 0
    changed = True
    with tracer.span("reduction", cells_before=cells_before) as red_span:
        while changed and rounds < max_rounds:
            if checkpoint is not None:
                checkpoint(phase="reduction", step=rounds, total=max_rounds)
            changed = False
            rounds += 1
            with tracer.span("reduction.round", round=rounds):
                if dominance:
                    for name in list(red.lc):
                        if vectorized and name not in red.dirty:
                            # Untouched since its last prune: survivors
                            # are pairwise non-dominated, so re-pruning
                            # keeps every row.  Skipping is exact.
                            continue
                        changed |= red.prune_node(name)
                if contraction:
                    for name in [n for n in red.order if n in red.lc]:
                        if len(red.adj[name]) <= 2:
                            changed |= red.eliminate_node(name)
        red_span.set(rounds=rounds, cells_after=red.work_cells())
    metrics_of().counter(
        "reduction_rounds_total", "search-space reduction rounds").inc(rounds)

    survivors = tuple(n for n in red.order if n in red.lc)
    reduced_space = space.restrict({n: red.sel[n] for n in survivors})
    reduced_tables = CostTables(
        graph=graph, space=reduced_space, machine=tables.machine,
        lc={n: red.lc[n] for n in survivors},
        pair_tx=dict(red.tx), derived=True,
        mem=None if red.mem is None else {n: red.mem[n] for n in survivors})
    reduced_tables.build_stats = dict(tables.build_stats)
    reduced_graph = ReducedGraphView(
        survivors, {n: sorted(red.adj[n]) for n in survivors})

    cells_after = red.work_cells()
    stats = {
        "reduction_seconds": time.perf_counter() - t0,
        "reduction_rounds": float(rounds),
        "reduction_configs_removed": float(red.configs_removed),
        "reduction_vertices_removed": float(n_before - len(survivors)),
        "reduction_cells_removed": float(cells_before - cells_after),
        "reduction_cells_before": float(cells_before),
        "reduction_cells_after": float(cells_after),
        "reduction_bypassed": 0.0,
    }
    if memory is not None:
        stats["reduction_memory_aware"] = 1.0
        stats["reduction_contraction_disabled"] = (
            1.0 if contraction_disabled else 0.0)
    return ReducedProblem(
        graph=graph, space=space, tables=tables,
        reduced_graph=reduced_graph, reduced_space=reduced_space,
        reduced_tables=reduced_tables, base_cost=red.base_cost,
        config_maps={n: red.sel[n] for n in survivors},
        elims=tuple(red.elims), stats=stats)
