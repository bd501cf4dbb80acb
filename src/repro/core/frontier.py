"""Pareto-frontier objective: cost × per-device memory (TensorOpt).

The scalar objective answers "the one fastest strategy"; the production
question (PAPERS.md, TensorOpt) is the *frontier* of (step time,
per-device memory) tradeoffs — you pick a point after you know the
cluster's memory headroom.  ``find_best_strategy(objective="frontier")``
runs the one DP driver (`repro.core.dp`) over the same recurrence (4)
and the same sequenced orderings with `PointTable` as its state format:
each DP state carries a pruned set of non-dominated ``(cost,
peak_bytes)`` pairs instead of a scalar min.

Exactness and bit-identity contracts
------------------------------------

* The frontier is **exact**: only dominated pairs are pruned (strict
  partial order, deterministic lexicographic tie-break), unless the
  optional ``eps`` coarsening knob is set, in which case within each
  state at most one point per geometric memory bucket of width
  ``(1 + eps)`` survives (the min-cost point is always exact).
* The frontier's **min-cost point carries a cost bit-identical to the
  scalar DP optimum**: per cell the cost accumulation ``((lc + tx…) +
  child₁) + child₂`` uses the scalar DP's exact association and float
  addition is monotone, so each state's min-cost point is the exact
  scalar table value.  (Its *strategy* is a min-cost witness — among
  exact cost ties the prune deterministically keeps the lowest-memory
  one, which need not be the scalar argmin's first-occurrence pick.)

Representation: the point table of vertex ``i`` is CSR over the cells
of its dependent set ``D(i)`` — ``offsets [cells+1]``, per-point
``cost``/``mem`` float64, the vertex's own configuration index ``k``,
and one back-pointer column per consumed child (the point index inside
the child's projected cell).  While building it, the state over the
full cells ``D(i) ∪ {v_i}`` is dense — one ``(cost, mem)`` per cell,
as in the scalar DP — for as long as every merged child holds one
point per cell: such a child is merged by broadcast add and the
reduction over ``v_i``'s axis is a row scan that sends only the rows
with several candidates through `pareto_prune`.  From the first child
with a multi-point cell on, the state is CSR, and children are merged
one at a time as a per-cell Minkowski sum followed by a grouped Pareto
prune, all vectorized (`pareto_prune` is a corner-box filter, three
unstable argsorts and one segmented running min — no Python-level
per-cell loop).  Both paths yield the same record, point for point.
A merge works in chunks of at most `kernels._BLOCK_CELLS` candidates,
the scalar DP's and the min-plus fold's block size.

Memory is accounted on the scalar DP's byte ledger and budget, and
exceeded budgets raise `SearchResourceError` (Table I's "OOM").
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .configs import ConfigSpace
from .costmodel import CostTables
from .graph import CompGraph
from .strategy import Strategy
from ._tensorops import aligned_term, sum_terms

__all__ = ["Objective", "parse_objective", "pareto_prune",
           "memory_tables", "strategy_peak_bytes"]


@dataclass(frozen=True)
class Objective:
    """A parsed search objective: scalar cost or the Pareto frontier."""

    kind: str        # "cost" | "frontier"
    eps: float = 0.0

    @property
    def is_frontier(self) -> bool:
        return self.kind == "frontier"

    @property
    def canonical(self) -> str:
        """The canonical string spelling (what fingerprints embed)."""
        if self.kind == "cost":
            return "cost"
        if self.eps > 0.0:
            return f"frontier:eps={self.eps:g}"
        return "frontier"


def parse_objective(objective: "str | Objective") -> Objective:
    """Parse an objective spelling: ``"cost"``, ``"frontier"``, or
    ``"frontier:eps=<float>"`` (a non-negative coarsening knob)."""
    if isinstance(objective, Objective):
        return objective
    if not isinstance(objective, str):
        raise ValueError(
            f"objective must be a string, got {type(objective).__name__}")
    text = objective.strip()
    if text == "cost":
        return Objective("cost")
    if text == "frontier":
        return Objective("frontier")
    if text.startswith("frontier:"):
        eps = 0.0
        for part in text[len("frontier:"):].split(","):
            key, sep, val = part.partition("=")
            if key.strip() != "eps" or not sep:
                raise ValueError(
                    f"unknown frontier option {part.strip()!r} in "
                    f"{objective!r}; expected 'frontier:eps=<float>'")
            try:
                eps = float(val)
            except ValueError:
                raise ValueError(
                    f"frontier eps must be a float, got {val!r}") from None
            if not math.isfinite(eps) or eps < 0.0:
                raise ValueError(
                    f"frontier eps must be finite and >= 0, got {eps!r}")
        return Objective("frontier", eps)
    raise ValueError(
        f"unknown objective {objective!r}; expected 'cost', 'frontier', "
        f"or 'frontier:eps=<float>'")


def memory_tables(graph: CompGraph, space: ConfigSpace,
                  ) -> dict[str, np.ndarray]:
    """Per-node per-config memory tables, ``name -> float64 [K]`` bytes.

    The second objective axis: `MemoryModel.node_bytes` vectorized over
    each node's enumerated configurations — parameter shards with
    optimizer state, activation shards, and communication buffers.
    """
    from ..analysis.memory import MemoryModel

    mm = MemoryModel()
    return {name: mm.node_bytes(graph.node(name), tab)
            for name, tab in space.tables.items()}


def strategy_peak_bytes(graph: CompGraph, space: ConfigSpace,
                        strategy: Strategy) -> float:
    """One strategy's peak bytes — the frontier's second axis, priced the
    way the frontier DP prices it (``Σ_v mem[v][k_v]``, summed in the
    strategy's assignment order), so a scalar run's synthesized length-1
    frontier is comparable to a real one.  Only each node's chosen
    configuration row goes through `MemoryModel.node_bytes`."""
    from ..analysis.memory import MemoryModel

    mm = MemoryModel()
    return float(sum(
        float(mm.node_bytes(graph.node(n), space.tables[n][k:k + 1])[0])
        for n, k in strategy.to_indices(space).items()))


# ---------------------------------------------------------------------------
# Grouped Pareto prune
# ---------------------------------------------------------------------------

def _mem_bucket(mem: np.ndarray, eps: float) -> np.ndarray:
    """The geometric memory bucket of width ``(1 + eps)`` of each byte
    count — the one expression eps coarsening compares."""
    return np.floor(np.log(np.maximum(mem, 1.0))
                    / math.log1p(eps)).astype(np.int64)


def pareto_prune(gid: np.ndarray, cost: np.ndarray, mem: np.ndarray, *,
                 eps: float = 0.0) -> np.ndarray:
    """Indices of the non-dominated points of each group, vectorized.

    Within each group (DP cell), point ``j`` is dropped when some point
    ``i`` has ``cost[i] <= cost[j]`` and ``mem[i] <= mem[j]`` — strict
    somewhere, with the deterministic tie-break that among exactly-equal
    pairs the earliest original index survives.

    Returns int64 indices into the inputs, ordered by (group, ascending
    cost); within a group the survivors' cost is strictly increasing and
    their memory strictly decreasing, and the group's first survivor is
    its min-cost point (min-memory among exact cost ties).

    With ``eps > 0``, survivors are additionally coarsened to one point
    per geometric memory bucket of width ``(1 + eps)`` — the kept point
    is the bucket's min-cost one, and each group's overall min-cost
    point is always exact.

    Two O(n) corner filters drop every point that one of the group's two
    corner points beats, so the sorts see only the points inside the
    corner box.  The sorts are numpy's default unstable ones, on keys
    whose ties the function resolves itself: unstable argsort is 3.7x
    faster than stable (timsort) on float64 keys here (2M keys, numpy
    2.4 on a 2-vCPU AVX-512 Xeon: 89 against 329 ms, median of 7).
    Every comparison is exact: the segmented running min runs on dense
    integer ranks, so no group-offset arithmetic perturbs a float.
    """
    n = int(cost.shape[0])
    if n == 0:
        return np.empty(0, dtype=np.int64)
    gid = np.asarray(gid, dtype=np.int64)
    if n > 1 and np.any(gid[1:] < gid[:-1]):
        raise ValueError("pareto_prune requires nondecreasing group ids")

    # Corner-box pre-filter, no sort.  Each group's min-cost point
    # (min memory among its cost ties, value (c_lo, m_hi)) beats every
    # point with mem >= m_hi, and its min-memory point (min cost among
    # its memory ties, (c_hi, m_lo)) every point with cost >= c_hi, but
    # for their own exact duplicates.  "Beats" is transitive and each
    # corner passes both filters, so dropping the points outside the box
    # cost < c_hi, mem < m_hi never changes the survivors.
    gstart = np.empty(n, dtype=bool)
    gstart[0] = True
    np.not_equal(gid[1:], gid[:-1], out=gstart[1:])
    starts = np.flatnonzero(gstart)
    del gstart
    n_groups = int(starts.shape[0])
    counts = np.diff(starts, append=n)
    at_c_lo = cost == np.repeat(np.minimum.reduceat(cost, starts), counts)
    m_hi = np.repeat(np.minimum.reduceat(np.where(at_c_lo, mem, np.inf),
                                         starts), counts)
    cand = (mem < m_hi) | (at_c_lo & (mem == m_hi))
    del at_c_lo, m_hi
    at_m_lo = mem == np.repeat(np.minimum.reduceat(mem, starts), counts)
    c_hi = np.repeat(np.minimum.reduceat(np.where(at_m_lo, cost, np.inf),
                                         starts), counts)
    del starts, counts
    cand &= (cost < c_hi) | (at_m_lo & (cost == c_hi))
    del at_m_lo, c_hi
    idx0 = np.flatnonzero(cand)
    del cand
    k = int(idx0.shape[0])
    if k == n_groups:
        # Exactly one candidate per group: already the frontier, already
        # in canonical (group, cost) order — and trivially eps-coarse.
        return idx0

    # Dense ranks of memory and of cost (equal values, -0.0 and 0.0
    # included, share a rank), then one key per (group, cost rank),
    # below k * k.  Each run of equal keys is one group's cost-tie
    # class; of it only the min-memory point can survive, and of equal
    # memories the earliest, which one min over ``mem rank * k +
    # position`` (below k * k) picks.
    m2 = mem[idx0]
    ranks = []
    for x in (m2, cost[idx0]):
        o = np.argsort(x)
        xs = x[o]
        step = np.empty(k, dtype=np.int64)
        step[0] = 0
        np.cumsum(xs[1:] != xs[:-1], out=step[1:])
        del x, xs
        rank = np.empty(k, dtype=np.int64)
        rank[o] = step
        del o, step
        ranks.append(rank)
    mrank, crank = ranks
    del ranks
    g2 = gid[idx0]
    key = np.empty(k, dtype=np.int64)
    key[0] = 0
    np.cumsum(g2[1:] != g2[:-1], out=key[1:])
    del g2
    key *= k
    key += crank
    del crank
    order = np.argsort(key)
    key = key[order]
    head = np.empty(k, dtype=bool)
    head[0] = True
    np.not_equal(key[1:], key[:-1], out=head[1:])
    runs = np.flatnonzero(head)
    del head
    gdense = key[runs] // k
    del key
    tie = mrank[order]
    del mrank
    tie *= k
    tie += order
    del order
    best = np.minimum.reduceat(tie, runs)
    del tie, runs
    rep = best % k
    best //= k
    # Encode (group, mem rank) so a single running min is a *segmented*
    # one: strictly decreasing per-group offsets make every
    # earlier-group value larger than any current-group value.  A run
    # survives when its memory is below every earlier run's of its group.
    best += (np.int64(int(gdense[-1])) - gdense) * np.int64(k)
    run = np.minimum.accumulate(best)
    keep = np.empty(best.shape[0], dtype=bool)
    keep[0] = True
    np.less(best[1:], run[:-1], out=keep[1:])
    del best, run
    rep = rep[keep]
    if eps > 0.0:
        kg = gdense[keep]
        bucket = _mem_bucket(m2[rep], eps)
        first = np.empty(rep.shape[0], dtype=bool)
        first[0] = True
        first[1:] = (kg[1:] != kg[:-1]) | (bucket[1:] != bucket[:-1])
        rep = rep[first]
    return idx0[rep]


# ---------------------------------------------------------------------------
# Point tables
# ---------------------------------------------------------------------------

@dataclass
class _PointRecord:
    """Stored frontier state for one sequenced vertex (CSR point table)."""

    offsets: np.ndarray          # int64 [cells + 1]
    cost: np.ndarray | None      # float64 [P]; freed once consumed
    mem: np.ndarray | None       # float64 [P]; freed once consumed
    k: np.ndarray                # int32 [P] — v_i's config per point
    childpt: np.ndarray          # int32 [P, n_children] — child point index

    def value_bytes(self) -> int:
        cost = self.cost.nbytes if self.cost is not None else 0
        mem = self.mem.nbytes if self.mem is not None else 0
        return cost + mem

    def nbytes(self) -> int:
        return (self.offsets.nbytes + self.value_bytes()
                + self.k.nbytes + self.childpt.nbytes)

    def free_values(self, ledger) -> None:
        """Values are consulted exactly once; free them (the
        ``k``/``childpt`` arrays stay for back-substitution)."""
        ledger.sub(self.value_bytes())
        self.cost = None
        self.mem = None


def _projection(child_axes: tuple[int, ...], full_axes: tuple[int, ...],
                full_shape: tuple[int, ...]) -> np.ndarray:
    """Child-cell flat id (C-order over ``child_axes``) per full cell."""
    out = np.zeros(full_shape, dtype=np.int64)
    mult = 1
    for ax in reversed(child_axes):
        t = full_axes.index(ax)
        coord = np.arange(full_shape[t], dtype=np.int64) * mult
        shape = [1] * len(full_shape)
        shape[t] = full_shape[t]
        out += coord.reshape(shape)
        mult *= full_shape[t]
    return out.reshape(-1)


#: Peak bytes `pareto_prune` allocates per input point, as tracemalloc
#: reads it: at most 73 (every input a survivor, eps coarsening on),
#: under 30 when the corner box drops most of them.
_PRUNE_BYTES = 80

#: Bytes `_merge_child` holds per candidate of a chunk: seven 8-byte
#: candidate arrays, three more per accumulated point, and the prune's
#: result.
_MERGE_BYTES = 88


def _merge_child(acc, child_offsets: np.ndarray, child_cost: np.ndarray,
                 child_mem: np.ndarray, proj: np.ndarray, *, eps: float,
                 pair_chunk: int, ledger,
                 group_of_cell: np.ndarray | None = None,
                 group_size: int = 1,
                 n_groups: int = 0,
                 k_of_cell: np.ndarray | None = None):
    """Minkowski-sum one child into the accumulated point set, pruned.

    ``acc`` is ``(offsets, cost, mem, childpt)`` CSR over the parent's
    full cells; the child's cell per full cell is ``proj``.  Candidate
    order within a cell is (accumulated point asc, child point asc) —
    both sides are cost-sorted, so the (0, 0) combination is the
    min-cost candidate and the prune keeps it first (float addition is
    monotone), preserving the scalar DP's accumulation.

    Fast path: when either side is a singleton in every cell (and no
    coarsening is requested), the sum is one frontier shifted by a
    constant — already non-dominated and cost-sorted — so the prune is
    skipped entirely.

    Fused candidate-axis reduction: with ``group_of_cell`` set (the
    parent's last child merge), the prune groups by the *dependent-set*
    cell — each run of ``group_size`` consecutive full cells — instead
    of the full cell, performing the DP's reduction over the vertex's
    own configuration axis in the same pass.  The returned CSR is then
    over the ``n_groups`` dependent-set cells and a fifth array gives
    each point's own-config index (``k_of_cell`` gathered).

    Candidates are built and pruned in chunks of at most ``pair_chunk``,
    but never less than one cell (one group when fused).
    """
    offsets, cost_a, mem_a, childpt = acc
    n_cells = offsets.shape[0] - 1
    counts_a = np.diff(offsets)
    counts_b = np.diff(child_offsets)[proj]
    pair = counts_a * counts_b
    pair_off = np.zeros(n_cells + 1, dtype=np.int64)
    np.cumsum(pair, out=pair_off[1:])
    fused = group_of_cell is not None
    skip_prune = (not fused and eps == 0.0
                  and (int(counts_a.max(initial=0)) <= 1
                       or int(counts_b.max(initial=0)) <= 1))

    out_cost: list[np.ndarray] = []
    out_mem: list[np.ndarray] = []
    out_childpt: list[np.ndarray] = []
    out_cells: list[np.ndarray] = []
    out_k: list[np.ndarray] = []
    width = childpt.shape[1] + 1
    held = 0        # bytes of the survivors so far, joined after the loop
    cand_bytes = 0  # bytes of the last chunk's candidate arrays
    start = 0
    while start < n_cells:
        end = int(np.searchsorted(pair_off, pair_off[start] + pair_chunk,
                                  side="right")) - 1
        end = min(n_cells, max(end, start + 1))
        if fused:
            # Chunks must not split a dependent-set cell's group.
            end = min(n_cells, max(start + group_size,
                                   (end // group_size) * group_size))
        total = int(pair_off[end] - pair_off[start])
        # Transient: the survivors of the earlier chunks, and per
        # candidate its arrays and `pareto_prune`'s peak.  The prune's
        # arrays are freed before a survivor's output row is built: 44
        # bytes, and its back-pointers twice (gathered, then joined).
        cand_bytes = total * _MERGE_BYTES
        ledger.check(held + cand_bytes + total * (_PRUNE_BYTES + 8 * width),
                     "frontier DP merge chunk")
        # Candidate construction by repeats (no integer div/mod): each
        # accumulated point of the chunk expands to its cell's
        # child-point count, child points in ascending local order.
        cell_of_a = np.repeat(np.arange(start, end, dtype=np.int64),
                              counts_a[start:end])
        cbp = counts_b[cell_of_a]
        n_a = cell_of_a.shape[0]
        bs = np.zeros(n_a, dtype=np.int64)
        np.cumsum(cbp[:-1], out=bs[1:])
        b_local = np.arange(total, dtype=np.int64) - np.repeat(bs, cbp)
        a0, a1 = int(offsets[start]), int(offsets[end])
        a_idx = np.repeat(np.arange(a0, a1, dtype=np.int64), cbp)
        b_idx = np.repeat(child_offsets[proj[cell_of_a]], cbp) + b_local
        ncost = np.repeat(cost_a[a0:a1], cbp) + child_cost[b_idx]
        nmem = np.repeat(mem_a[a0:a1], cbp) + child_mem[b_idx]
        cell_of = np.repeat(cell_of_a, cbp)
        if skip_prune:
            out_cost.append(ncost)
            out_mem.append(nmem)
            out_childpt.append(np.concatenate(
                [childpt[a_idx], b_local[:, None].astype(np.int32)], axis=1))
            out_cells.append(cell_of)
        else:
            gid = group_of_cell[cell_of] if fused else cell_of
            kept = pareto_prune(gid, ncost, nmem, eps=eps)
            out_cost.append(ncost[kept])
            out_mem.append(nmem[kept])
            out_childpt.append(np.concatenate(
                [childpt[a_idx[kept]], b_local[kept, None].astype(np.int32)],
                axis=1))
            if fused:
                out_cells.append(gid[kept])
                out_k.append(k_of_cell[cell_of[kept]])
            else:
                out_cells.append(cell_of[kept])
        held += sum(parts[-1].nbytes for parts in
                    (out_cost, out_mem, out_childpt, out_cells, out_k)
                    if parts)
        start = end

    # Joining several chunks copies every survivor once more, while the
    # last chunk's candidate arrays are still alive; a lone chunk's
    # arrays are the result as they are.  Then the offsets.
    n_out = n_groups if fused else n_cells
    copies = 2 if len(out_cost) > 1 else 1
    ledger.check(cand_bytes + copies * held + 16 * (n_out + 1),
                 "frontier DP merge")
    cost_n = _join(out_cost, np.empty(0))
    mem_n = _join(out_mem, np.empty(0))
    childpt_n = _join(out_childpt, np.empty((0, width), dtype=np.int32))
    cells_n = _join(out_cells, np.empty(0, dtype=np.int64))
    off_n = np.zeros(n_out + 1, dtype=np.int64)
    np.cumsum(np.bincount(cells_n, minlength=n_out), out=off_n[1:])
    if fused:
        return (off_n, cost_n, mem_n, childpt_n,
                _join(out_k, np.empty(0, dtype=np.int32)))
    return off_n, cost_n, mem_n, childpt_n


def _join(parts: list[np.ndarray], empty: np.ndarray) -> np.ndarray:
    """The chunks' arrays as one: a lone chunk's as it is, uncopied."""
    if len(parts) == 1:
        return parts[0]
    return np.concatenate(parts) if parts else empty


def _reduce_dense(cost: np.ndarray, mem: np.ndarray, eps: float, ledger,
                  what: str):
    """Reduce a dense ``[cells, K]`` state over its last axis, the
    vertex's own configuration, to CSR ``(offsets, cost, mem, k)``.

    The result is what `pareto_prune` grouped by row returns, point for
    point.  A row is one point, its min-cost config ``j*`` (first
    occurrence), unless some config has less memory than ``j*``.  Exact
    cost ties need no rule of their own: a tie with less memory is such
    a config, and one with as much memory or more is dominated by
    ``j*``, or duplicates it after it.  With ``eps > 0`` a row is also
    one point when every lower-memory config falls in ``j*``'s memory
    bucket and none ties its cost: the bucket's one survivor is ``j*``.
    Only the candidates of the remaining rows, ``j*`` and the configs
    with less memory, go through `pareto_prune`; its own pre-filter
    keeps the same points of them as of the whole row.
    """
    cells, k = cost.shape
    # Live through the scan: the argmin and its flat index, the min-cost
    # point's cost and memory, the candidate mask, per-row flags; and
    # the buffers of numpy's buffered ufunc loops, one
    # ``getbufsize()``-element float64 array for each of up to three
    # operands.
    scan = cells * 48 + cost.size + 24 * np.getbufsize()
    ledger.check(scan, what)
    arg = cost.argmin(axis=1)
    at = np.arange(cells, dtype=np.int64) * k + arg
    cmin = cost.reshape(-1)[at]
    mmin = mem.reshape(-1)[at]
    del at
    cand = mem < mmin[:, None]
    if not cand.any():
        return (np.arange(cells + 1, dtype=np.int64), cmin, mmin,
                arg.astype(np.int32))
    multi = cand.any(axis=1)
    rows = np.flatnonzero(multi)

    # The candidates of the rows with several, in (row, config) order.
    sub = cand[rows]
    del cand
    sub[np.arange(rows.size), arg[rows]] = True
    n_cand = int(np.count_nonzero(sub))
    ledger.check(scan + rows.size * (k + 16)
                 + n_cand * (96 + _PRUNE_BYTES), what)
    rr, cc = np.divmod(np.flatnonzero(sub), k)
    del sub
    gid = rows[rr]
    flat = gid * k + cc
    c = cost.reshape(-1)[flat]
    m = mem.reshape(-1)[flat]
    del flat
    if eps > 0.0:
        # A row whose lower-memory configs all share j*'s bucket, none
        # at j*'s cost, is one point after all: drop its candidates.
        ties = np.bincount(rr[c == cmin[gid]], minlength=rows.size)
        off = np.bincount(rr[_mem_bucket(m, eps)
                             != _mem_bucket(mmin[rows], eps)[rr]],
                          minlength=rows.size)
        one = (ties == 1) & (off == 0)
        if one.any():
            multi[rows[one]] = False
            keep = ~one[rr]
            gid, cc, c, m = gid[keep], cc[keep], c[keep], m[keep]
            del keep
        del ties, off, one
    del rr
    kept = pareto_prune(gid, c, m, eps=eps)

    # Interleave the survivors with the one-point rows, row by row.
    one = ~multi
    counts = np.bincount(gid[kept], minlength=cells)
    counts[one] = 1
    offsets = np.zeros(cells + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    n_out = int(offsets[-1])
    ledger.check(scan + n_cand * 40 + cells * 17 + n_out * 22, what)
    pruned = np.repeat(multi, counts)
    out_cost = np.empty(n_out, dtype=np.float64)
    out_mem = np.empty(n_out, dtype=np.float64)
    out_k = np.empty(n_out, dtype=np.int32)
    out_cost[pruned] = c[kept]
    out_mem[pruned] = m[kept]
    out_k[pruned] = cc[kept]
    pruned = ~pruned
    out_cost[pruned] = cmin[one]
    out_mem[pruned] = mmin[one]
    out_k[pruned] = arg[one]
    return offsets, out_cost, out_mem, out_k


# ---------------------------------------------------------------------------
# The frontier state format
# ---------------------------------------------------------------------------

class PointTable:
    """The frontier objective's state format for the DP driver
    (`repro.core.dp`): per vertex a CSR table of the non-dominated
    (cost, peak-bytes) points of each cell of ``D(i)``."""

    span = "frontier"    # span name and checkpoint phase
    frontier = True

    def __init__(self, graph: CompGraph, space: ConfigSpace,
                 tables: CostTables, eps: float, ledger) -> None:
        mem = tables.mem
        if mem is None:
            mem = memory_tables(graph, space)
        #: Per-node per-config bytes; also the reduction's memory columns.
        self.memory = {n: np.ascontiguousarray(m, dtype=np.float64)
                       for n, m in mem.items()}
        self.eps = eps
        self.ledger = ledger
        self.max_state_points = 0
        # The dense state's cost and memory halves, reused by every
        # vertex: a fresh multi-megabyte array per vertex costs about as
        # much in page faults as the adds that fill it.  Live on the
        # ledger from its allocation until `combine` drops it.
        self._state = np.empty(0, dtype=np.float64)

    def _dense_state(self, full_shape: tuple[int, ...], name: str):
        """The dense ``(cost, mem)`` arrays over ``full_shape``, views of
        the reused state buffer, grown to fit."""
        n = math.prod(full_shape)
        if self._state.shape[0] < 2 * n:
            self.ledger.sub(self._state.nbytes)
            self._state = np.empty(0, dtype=np.float64)
            self.ledger.check(n * 16, f"frontier DP state of vertex {name!r}")
            self._state = np.empty(2 * n, dtype=np.float64)
            self.ledger.add(self._state.nbytes)
        return (self._state[:n].reshape(full_shape),
                self._state[n:2 * n].reshape(full_shape))

    def vertex(self, i: int, name: str, dep: tuple[int, ...],
               table_shape: tuple[int, ...], k: int, terms: list,
               kids: list) -> _PointRecord:
        """Seed one point per full cell, merge the children, and reduce
        over ``v_i``'s configuration axis.

        The state stays dense while every merged child holds one point
        per cell; the first child with a multi-point cell turns it into
        CSR for the rest of the vertex.
        """
        ledger = self.ledger
        eps = self.eps
        table_cells = math.prod(table_shape)
        full_axes = dep + (i,)
        full_shape = table_shape + (k,)
        n_full = table_cells * k

        # The dense seed, one point per full cell: H(i, ·) — the layer
        # cost plus transfers to later neighbors, scalar association —
        # and the vertex's own memory.
        cost, mem = self._dense_state(full_shape, name)
        sum_terms(terms, full_axes, cost)
        np.copyto(mem, aligned_term(self.memory[name], (i,), full_axes))

        # Merge children in the scalar DP's term order.  A child with one
        # point per cell is a dense table over its dependent set: add it
        # by broadcast, so each cell's sums keep the scalar association.
        t = 0
        for axes, rec in kids:
            assert rec.cost is not None, "child point table consumed twice"
            if rec.cost.shape[0] != rec.offsets.shape[0] - 1:
                break
            shape = tuple(full_shape[full_axes.index(ax)] for ax in axes)
            np.add(cost, aligned_term(rec.cost.reshape(shape), axes,
                                      full_axes), out=cost)
            np.add(mem, aligned_term(rec.mem.reshape(shape), axes,
                                     full_axes), out=mem)
            rec.free_values(ledger)
            t += 1

        if t == len(kids):
            offsets, cost_r, mem_r, k_arr = _reduce_dense(
                cost.reshape(table_cells, k), mem.reshape(table_cells, k),
                eps, ledger, f"frontier DP reduction of vertex {name!r}")
            rec = _PointRecord(offsets=offsets, cost=cost_r, mem=mem_r,
                               k=k_arr,
                               childpt=np.zeros((cost_r.shape[0], t),
                                                dtype=np.int32))
            ledger.add(rec.nbytes())
        else:
            # From the first multi-point child on, the state is CSR.  The
            # children merged so far hold one point per cell, so their
            # back-pointer columns are all zero.  The last merge's prune
            # is fused with the reduction over the vertex's own
            # configuration axis (grouped by dependent-set cell), so the
            # union of the K per-cell candidate sets is never re-pruned
            # in a second pass.
            acc = (np.arange(n_full + 1, dtype=np.int64), cost.reshape(-1),
                   mem.reshape(-1), np.zeros((n_full, t), dtype=np.int32))
            # Bytes of ``acc`` outside the state buffer.
            owned = acc[0].nbytes + acc[3].nbytes
            ledger.add(owned)
            for u in range(t, len(kids)):
                axes, rec = kids[u]
                assert rec.cost is not None, \
                    "child point table consumed twice"
                proj = _projection(axes, full_axes, full_shape)
                if u == len(kids) - 1:
                    *acc, k_arr = _merge_child(
                        acc, rec.offsets, rec.cost, rec.mem, proj,
                        eps=eps, pair_chunk=kernels._BLOCK_CELLS,
                        ledger=ledger,
                        group_of_cell=np.repeat(
                            np.arange(table_cells, dtype=np.int64), k),
                        group_size=k, n_groups=table_cells,
                        k_of_cell=np.tile(
                            np.arange(k, dtype=np.int32), table_cells))
                else:
                    acc = _merge_child(
                        acc, rec.offsets, rec.cost, rec.mem, proj, eps=eps,
                        pair_chunk=kernels._BLOCK_CELLS, ledger=ledger)
                ledger.sub(owned)
                owned = sum(a.nbytes for a in acc)
                ledger.add(owned)
                rec.free_values(ledger)
            offsets, cost_r, mem_r, childpt = acc
            rec = _PointRecord(offsets=offsets, cost=cost_r, mem=mem_r,
                               k=k_arr, childpt=childpt)
            ledger.add(k_arr.nbytes)
        if rec.cost.size:
            self.max_state_points = max(self.max_state_points,
                                        int(np.diff(rec.offsets).max()))
        return rec

    def combine(self, roots: list) -> list:
        """The total frontier: the Minkowski sum of the root tables, one
        ``(cost, peak_bytes, root point indices)`` per point."""
        self.ledger.sub(self._state.nbytes)
        self._state = np.empty(0, dtype=np.float64)
        facc = (np.array([0, 1], dtype=np.int64),
                np.zeros(1, dtype=np.float64),
                np.zeros(1, dtype=np.float64),
                np.empty((1, 0), dtype=np.int32))
        proj1 = np.zeros(1, dtype=np.int64)
        for rec in roots:
            assert rec.cost is not None and rec.offsets.shape[0] == 2
            facc = _merge_child(facc, rec.offsets, rec.cost, rec.mem, proj1,
                                eps=self.eps,
                                pair_chunk=kernels._BLOCK_CELLS,
                                ledger=self.ledger)
            rec.free_values(self.ledger)
        _, fcost, fmem, rootpt = facc
        return [(float(fcost[p]), float(fmem[p]), rootpt[p].tolist())
                for p in range(fcost.shape[0])]

    def pick(self, rec: _PointRecord, cell: int, local: int):
        """``v_i``'s config at point ``local`` of ``cell``, and the point
        index of that point inside each child's cell."""
        g = int(rec.offsets[cell]) + local
        return int(rec.k[g]), rec.childpt[g].tolist()
