"""Reference searches: the naive recurrence (2) DP and brute force.

* :func:`naive_bf_strategy` implements Section III-A as written:
  recurrence (2) over a breadth-first ordering, with DP tables keyed by
  the *breadth-first dependent sets* ``D_B(i) = N(V_<=i) ∩ V_>i``.  The
  paper's "BF" column in Table I runs the one DP driver over the same
  ordering instead (`repro.core.dp.find_best_strategy` with
  ``order=breadth_first_seq(graph)``): Theorem 1 makes the two the same
  computation, and this short, unbudgeted loop is the independent oracle
  that says so.
* :func:`brute_force_strategy` enumerates every strategy (vectorized as one
  giant broadcast sum); it is the ground truth the property tests compare
  both DPs against on small graphs.
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

from .configs import ConfigSpace
from .costmodel import CostTables
from .exceptions import SearchResourceError
from .graph import CompGraph
from .sequencer import breadth_first_seq
from .strategy import SearchResult, Strategy
from ._tensorops import sum_terms

__all__ = ["naive_bf_strategy", "brute_force_strategy", "bf_dependent_sets"]


def bf_dependent_sets(adj: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """D_B(i) = N(V_<=i) ∩ V_>i for every prefix, maintained incrementally."""
    frontier: set[int] = set()
    out: list[tuple[int, ...]] = []
    for i in range(len(adj)):
        frontier.discard(i)
        frontier.update(j for j in adj[i] if j > i)
        out.append(tuple(sorted(frontier)))
    return out


def naive_bf_strategy(
    graph: CompGraph,
    space: ConfigSpace,
    tables: CostTables,
    *,
    order: Sequence[str] | None = None,
) -> SearchResult:
    """Recurrence (2) DP (Section III-A), the oracle for the BF search.

    ``B(i, φ) = min_C [ H(i, φ ∪ {(v_i, C)}) + B(i-1, φ'') ]`` with tables
    keyed by ``D_B(i)``, each built whole: no byte budget, no chunking,
    no checkpoints.  ``order`` defaults to the breadth-first ordering.
    """
    t0 = time.perf_counter()
    order = tuple(breadth_first_seq(graph) if order is None else order)
    pos = {name: i for i, name in enumerate(order)}
    adj = [sorted(pos[m] for m in graph.neighbors(name)) for name in order]
    dep = bf_dependent_sets(adj)
    carried: list = []              # B(i-1) as a term; none before v_0
    argmins: list[np.ndarray] = []
    cells = 0
    for i, name in enumerate(order):
        terms = [(tables.lc[name], (i,))]
        terms += [(tables.tx(name, order[u]), (i, u)) for u in adj[i] if u > i]
        full = np.empty(tuple(space.size(order[d]) for d in dep[i])
                        + (space.size(name),))
        sum_terms(terms + carried, dep[i] + (i,), full)
        carried = [(full.min(-1), dep[i])]
        argmins.append(full.argmin(-1))
        cells += full.size

    chosen: dict[int, int] = {}
    for i in range(len(order) - 1, -1, -1):
        chosen[i] = int(argmins[i][tuple(chosen[d] for d in dep[i])])
    strategy = Strategy.from_indices(space, {order[i]: k for i, k in chosen.items()})
    return SearchResult(
        strategy=strategy,
        cost=float(carried[0][0]) if carried else 0.0,
        elapsed=time.perf_counter() - t0,
        method="naive-bf",
        stats={"cells": float(cells),
               "max_dependent": float(max(map(len, dep), default=0))},
    )


def brute_force_strategy(
    graph: CompGraph,
    space: ConfigSpace,
    tables: CostTables,
    *,
    max_cells: int = 50_000_000,
) -> SearchResult:
    """Exhaustive minimum over every valid strategy (small graphs only).

    Vectorized: the full objective is one broadcast sum over an array with
    one axis per node; refuses to run past ``max_cells``.
    """
    t0 = time.perf_counter()
    names = graph.node_names
    n = len(names)
    pos = {name: i for i, name in enumerate(names)}
    shape = tuple(space.size(name) for name in names)
    cells = int(np.prod(shape, dtype=np.int64)) if n else 1
    if cells > max_cells:
        raise SearchResourceError(
            f"brute force needs {cells} cells > limit {max_cells}",
            requested_bytes=cells * 8, budget_bytes=max_cells * 8)

    total = np.zeros(shape, dtype=np.float64)
    for name in names:
        view = [1] * n
        view[pos[name]] = shape[pos[name]]
        total = total + tables.lc[name].reshape(view)
    for (u, v), mat in tables.pair_tx.items():
        view = [1] * n
        view[pos[u]] = shape[pos[u]]
        view[pos[v]] = shape[pos[v]]
        if pos[u] < pos[v]:
            total = total + mat.reshape(view)
        else:
            total = total + mat.T.reshape(view)
    flat = int(np.argmin(total))
    best = float(total.reshape(-1)[flat])
    multi = np.unravel_index(flat, shape) if n else ()
    strategy = Strategy.from_indices(
        space, {name: int(multi[pos[name]]) for name in names})
    return SearchResult(
        strategy=strategy,
        cost=best,
        elapsed=time.perf_counter() - t0,
        method="brute-force",
        stats={"cells": float(cells)},
    )
