"""Vertex orderings and dependent-set machinery (paper, Section III).

The efficiency of the dynamic program hinges on the *ordering* of the
vertices: DP tables are keyed by the dependent set ``D(i)`` of each vertex,
and table sizes are exponential in ``|D(i)|``.  This module provides

* :func:`generate_seq` — the paper's GENERATESEQ (Fig. 3): greedily pick
  the unsequenced vertex with the smallest maintained dependent set, so
  high-degree nodes are sequenced only after their sparse neighborhoods;
* :func:`breadth_first_seq` — the naive baseline ordering (Section III-A);
* :func:`random_seq` — for ablations;
* :class:`SequencedGraph` — a graph indexed by sequence position with
  dependent sets ``D(i)``, each vertex's children and the roots, consumed
  by the DP.

The Theorem 2 property tests (``tests/core/test_sequencer.py``) check
these sets against ``D/X/S`` computed straight from the definitions.

Both `generate_seq` and `SequencedGraph.build` run the same single pass
of Fig. 3 (`_eliminate`).  Its incremental dependent-set update (line 8)
is valid for *any* ordering — the correctness proof (Appendix B) never
uses the greedy pick — so the pass takes a given ordering as readily as
it picks one.  The connected subsets ``S(i)`` of recurrence (4) are read
off the dependent sets: the children of ``i`` are the ``j`` with
``D(j)[0] == i``, and the roots the ``j`` with an empty ``D(j)``
(DESIGN §5 has the proof).
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .exceptions import GraphError
from .graph import CompGraph

__all__ = [
    "generate_seq",
    "breadth_first_seq",
    "random_seq",
    "SequencedGraph",
]


# ---------------------------------------------------------------------------
# Orderings
# ---------------------------------------------------------------------------

def generate_seq(graph: CompGraph) -> tuple[str, ...]:
    """GENERATESEQ (paper Fig. 3): order vertices to keep ``|D(i)|`` small.

    Each iteration sequences the vertex with the smallest maintained
    dependent set, ties broken by graph insertion order (see `_eliminate`).
    """
    return _eliminate(graph, None)[0]


def _eliminate(graph: CompGraph, order: Sequence[str] | None
               ) -> tuple[tuple[str, ...], list[set[str]]]:
    """One pass of Fig. 3: sequence every vertex, merging its dependent
    set into its dependents' sets.

    Maintains, for every unsequenced vertex ``v``, its prospective
    dependent set ``v.d``.  With ``order=None`` each step picks the vertex
    with the smallest ``|v.d|`` (GENERATESEQ); otherwise the vertices are
    taken in ``order``, for which the update is just as exact (Theorem 2).
    Returns the ordering and each vertex's set at the moment it was
    sequenced, which is its ``D(i)``.

    The greedy minimum is tracked with a size-keyed heap under lazy
    invalidation: every dependent-set change pushes a fresh ``(size,
    insertion index, name)`` entry, and popped entries whose size no
    longer matches the live set are discarded.  Sizes both grow (merges)
    and shrink (each set drops the vertex just sequenced), so staleness is
    detected by comparing against the live size rather than assuming
    monotonicity.  The ``(size, insertion index)`` key reproduces the
    linear scan's first-minimal-in-insertion-order tie-break exactly.
    """
    names = graph.node_names
    dep: dict[str, set[str]] = {n: set(graph.neighbors(n)) for n in names}
    heap = None
    if order is None:
        idx = {n: i for i, n in enumerate(names)}
        heap = [(len(dep[n]), i, n) for i, n in enumerate(names)]
        heapq.heapify(heap)
    sequenced: set[str] = set()
    seq: list[str] = []
    dsets: list[set[str]] = []
    for step in range(len(names)):
        if heap is None:
            pick = order[step]
        else:
            size, _, pick = heapq.heappop(heap)
            while pick in sequenced or size != len(dep[pick]):
                size, _, pick = heapq.heappop(heap)
        sequenced.add(pick)
        seq.append(pick)
        pick_set = dep[pick]
        dsets.append(pick_set)
        for v in pick_set:
            merged = dep[v] | pick_set
            merged.discard(pick)
            merged.discard(v)
            dep[v] = merged
            if heap is not None:
                heapq.heappush(heap, (len(merged), idx[v], v))
    return tuple(seq), dsets


def breadth_first_seq(graph: CompGraph) -> tuple[str, ...]:
    """Breadth-first ordering over the undirected graph (Section III-A).

    Starts from the first topological source and, for forests, restarts
    from the next unvisited vertex.
    """
    names = graph.node_names
    if not names:
        return ()
    root = graph.topological_order()[0]
    order: list[str] = []
    visited: set[str] = set()
    pending = [root] + [n for n in names if n != root]
    for start in pending:
        if start in visited:
            continue
        queue = deque([start])
        visited.add(start)
        while queue:
            n = queue.popleft()
            order.append(n)
            for m in graph.neighbors(n):
                if m not in visited:
                    visited.add(m)
                    queue.append(m)
    return tuple(order)


def random_seq(graph: CompGraph, rng: np.random.Generator) -> tuple[str, ...]:
    """A uniformly random vertex ordering (ablation baseline)."""
    names = list(graph.node_names)
    rng.shuffle(names)
    return tuple(names)


# ---------------------------------------------------------------------------
# Sequenced graph: positions, D(i), children, roots
# ---------------------------------------------------------------------------

@dataclass
class SequencedGraph:
    """A computation graph annotated with one vertex ordering.

    All sets are represented by 0-based sequence positions; ``order[i]`` is
    the paper's ``v^{(i+1)}``.

    Attributes
    ----------
    order:
        Node names in sequence order.
    adj:
        ``adj[i]`` — positions of the undirected neighbors of vertex ``i``.
    dep:
        ``dep[i]`` — the dependent set ``D(i)`` as a sorted tuple of
        positions (all ``> i``), maintained incrementally per Fig. 3.
    children:
        ``children[i]`` — the last vertex of each connected subset in
        ``S(i)``, i.e. the ``j`` whose DP table recurrence (4) adds at
        ``i``: those with ``D(j)[0] == i``, ordered by the first position
        of their connected set ``X(j)``.
    roots:
        The last vertex of each weakly connected component (the ``j``
        with an empty ``D(j)``), ascending; the DP sums their tables, so
        forests also work.
    """

    graph: CompGraph
    order: tuple[str, ...]
    pos: dict[str, int]
    adj: tuple[tuple[int, ...], ...]
    dep: tuple[tuple[int, ...], ...]
    children: tuple[tuple[int, ...], ...]
    roots: tuple[int, ...]

    @classmethod
    def build(cls, graph: CompGraph,
              order: Sequence[str] | None = None) -> "SequencedGraph":
        """Sequence ``graph`` by ``order`` (GENERATESEQ when None) in one
        pass of Fig. 3."""
        if order is not None:
            order = tuple(order)
            if sorted(order) != sorted(graph.node_names):
                raise GraphError(
                    "ordering is not a permutation of the graph's nodes")
        order, dsets = _eliminate(graph, order)
        pos = {n: i for i, n in enumerate(order)}
        adj = tuple(
            tuple(sorted(pos[m] for m in graph.neighbors(n))) for n in order
        )
        dep = tuple(tuple(sorted(pos[m] for m in d)) for d in dsets)
        # X(j) is a whole component of X(i) - {i} exactly when D(j)[0] == i
        # (DESIGN §5); first[i] is the first position of X(i).
        children: list[list[int]] = [[] for _ in order]
        first = list(range(len(order)))
        roots: list[int] = []
        for i, d in enumerate(dep):
            kids = children[i]
            if kids:
                kids.sort(key=first.__getitem__)
                first[i] = first[kids[0]]
            (children[d[0]] if d else roots).append(i)
        return cls(graph=graph, order=order, pos=pos, adj=adj, dep=dep,
                   children=tuple(map(tuple, children)), roots=tuple(roots))

    def __len__(self) -> int:
        return len(self.order)

    @property
    def max_dependent_size(self) -> int:
        """M = max_i |D(i)| (drives the DP's exponential factor)."""
        return max((len(d) for d in self.dep), default=0)

    def name(self, i: int) -> str:
        return self.order[i]

    def later_neighbors(self, i: int) -> tuple[int, ...]:
        """N(v_i) ∩ V_>i — the neighbors whose transfer cost H(i, ·) owns."""
        return tuple(j for j in self.adj[i] if j > i)
