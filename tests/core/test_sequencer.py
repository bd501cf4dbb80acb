"""Tests for vertex orderings — including the Theorem 2 property."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.exceptions import GraphError
from repro.core.reduction import ReducedGraphView
from repro.core.sequencer import (
    SequencedGraph,
    breadth_first_seq,
    generate_seq,
    random_seq,
)
from tests.conftest import build_dag, small_dags


# ---------------------------------------------------------------------------
# Definitional reference implementations of X(i), D(i) and S(i)
# ---------------------------------------------------------------------------

def connected_set_reference(graph, order, i):
    """X(i) straight from the Section III-B definition."""
    order = tuple(order)
    allowed = set(order[: i + 1])
    start = order[i]
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for w in graph.neighbors(u):
            if w in allowed and w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def dependent_set_reference(graph, order, i):
    """D(i) = N(X(i)) ∩ V_>i straight from the definition."""
    order = tuple(order)
    x = connected_set_reference(graph, order, i)
    later = set(order[i + 1:])
    nbrs = set()
    for u in x:
        nbrs.update(graph.neighbors(u))
    return nbrs & later


def connected_subsets_reference(graph, order, i):
    """S(i): components of the induced subgraph on X(i) - {v_i}."""
    order = tuple(order)
    members = connected_set_reference(graph, order, i) - {order[i]}
    comps = []
    seen = set()
    for start in sorted(members, key=order.index):
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        while stack:
            u = stack.pop()
            for w in graph.neighbors(u):
                if w in members and w not in comp:
                    comp.add(w)
                    stack.append(w)
        seen |= comp
        comps.append(comp)
    return comps


@st.composite
def adjacency_graphs(draw, max_nodes: int = 8):
    """Random undirected adjacency, often disconnected or empty — the
    contracted forests the reduction hands the DP."""
    n = draw(st.integers(min_value=0, max_value=max_nodes))
    names = [f"v{k}" for k in range(n)]
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) \
        if pairs else []
    nbrs: dict[str, list[str]] = {v: [] for v in names}
    for a, b in edges:
        nbrs[names[a]].append(names[b])
        nbrs[names[b]].append(names[a])
    return ReducedGraphView(names, nbrs)


@st.composite
def sequenced_graphs(draw):
    """A connected DAG or random adjacency, with GENERATESEQ or a random
    ordering of it."""
    graph = draw(st.one_of(small_dags(), adjacency_graphs()))
    if draw(st.booleans()):
        return graph, generate_seq(graph)
    return graph, tuple(draw(st.permutations(graph.node_names)))


def subtree(seq, i):
    """``v_i`` plus the subtrees of its children, as node names."""
    out = {seq.order[i]}
    for j in seq.children[i]:
        out |= subtree(seq, j)
    return out


def component_lasts(graph, order):
    """The last position of each weakly connected component, ascending."""
    pos = {n: i for i, n in enumerate(order)}
    seen: set[str] = set()
    lasts = []
    for start in order:
        if start in seen:
            continue
        comp, stack = {start}, [start]
        while stack:
            for m in graph.neighbors(stack.pop()):
                if m not in comp:
                    comp.add(m)
                    stack.append(m)
        seen |= comp
        lasts.append(max(pos[m] for m in comp))
    return sorted(lasts)


class TestOrderings:
    def test_generate_seq_is_permutation(self, diamond):
        order = generate_seq(diamond)
        assert sorted(order) == sorted(diamond.node_names)

    def test_breadth_first_is_permutation(self, diamond):
        order = breadth_first_seq(diamond)
        assert sorted(order) == sorted(diamond.node_names)

    def test_random_seq(self, chain3, rng):
        order = random_seq(chain3, rng)
        assert sorted(order) == sorted(chain3.node_names)

    def test_deterministic(self, diamond):
        assert generate_seq(diamond) == generate_seq(diamond)

    def test_empty_graph(self):
        from repro.core.graph import CompGraph
        assert generate_seq(CompGraph()) == ()
        assert breadth_first_seq(CompGraph()) == ()

    def _bfs_list_pop_reference(self, graph):
        """The original O(n²) ``list.pop(0)`` BFS; the deque version must
        visit in exactly the same order."""
        names = graph.node_names
        if not names:
            return ()
        root = graph.topological_order()[0]
        order, visited = [], set()
        for start in [root] + [n for n in names if n != root]:
            if start in visited:
                continue
            queue = [start]
            visited.add(start)
            while queue:
                n = queue.pop(0)
                order.append(n)
                for m in graph.neighbors(n):
                    if m not in visited:
                        visited.add(m)
                        queue.append(m)
        return tuple(order)

    def test_breadth_first_order_unchanged(self, diamond):
        assert breadth_first_seq(diamond) == \
            self._bfs_list_pop_reference(diamond)

    def test_breadth_first_order_unchanged_on_benchmarks(self):
        from repro.models import inception_v3, transformer
        for factory in (inception_v3, transformer):
            g = factory()
            assert breadth_first_seq(g) == self._bfs_list_pop_reference(g)

    @settings(max_examples=40, deadline=None)
    @given(small_dags())
    def test_breadth_first_order_unchanged_random(self, graph):
        assert breadth_first_seq(graph) == \
            self._bfs_list_pop_reference(graph)

    def _generate_seq_scan_reference(self, graph):
        """The original O(n²) linear-scan GENERATESEQ; the heap version
        must pick identical vertices, ties included."""
        names = graph.node_names
        dep = {n: set(graph.neighbors(n)) for n in names}
        unsequenced = list(names)
        order = []
        for _ in range(len(names)):
            pick = min(unsequenced, key=lambda n: len(dep[n]))
            unsequenced.remove(pick)
            order.append(pick)
            pick_set = dep[pick]
            for v in pick_set:
                merged = dep[v] | pick_set
                merged.discard(pick)
                merged.discard(v)
                dep[v] = merged
        return tuple(order)

    def test_generate_seq_order_unchanged_on_benchmarks(self):
        from repro.models import BENCHMARKS
        for factory in BENCHMARKS.values():
            g = factory()
            assert generate_seq(g) == self._generate_seq_scan_reference(g)

    @settings(max_examples=60, deadline=None)
    @given(small_dags())
    def test_generate_seq_order_unchanged_random(self, graph):
        assert generate_seq(graph) == \
            self._generate_seq_scan_reference(graph)


class TestSequencedGraph:
    def test_rejects_non_permutation(self, chain3):
        with pytest.raises(GraphError):
            SequencedGraph.build(chain3, ("n0", "n1"))

    def test_path_graph_dependent_sets(self, chain3):
        seq = SequencedGraph.build(chain3, ("n0", "n1", "n2"))
        assert seq.max_dependent_size == 1
        assert seq.dep == ((1,), (2,), ())

    def test_default_order_is_generate_seq(self, diamond):
        seq = SequencedGraph.build(diamond)
        assert seq == SequencedGraph.build(diamond, generate_seq(diamond))

    def test_connected_set_includes_self(self, diamond):
        order = generate_seq(diamond)
        seq = SequencedGraph.build(diamond, order)
        for i in range(len(seq)):
            assert subtree(seq, i) == \
                connected_set_reference(diamond, order, i)

    def test_paper_example_structure(self):
        # Fig. 2-like: vertex 4 (0-based) connected to components {0,1},{2}.
        g = build_dag(6, [(0, 4), (2, 4)])
        # order: n0 n1 n2 n3 n4 n5 (identity); X(4) spans everything <= 4,
        # so S(4) is the one component {0, 1, 2, 3}, whose table is 3's.
        seq = SequencedGraph.build(g, g.node_names)
        assert seq.children[4] == (3,)
        assert subtree(seq, 3) == {"n0", "n1", "n2", "n3"}

    def test_roots_weakly_connected(self, diamond):
        seq = SequencedGraph.build(diamond, generate_seq(diamond))
        assert seq.roots == (len(seq) - 1,)

    def test_later_neighbors(self, chain3):
        seq = SequencedGraph.build(chain3, ("n0", "n1", "n2"))
        assert seq.later_neighbors(0) == (1,)
        assert seq.later_neighbors(2) == ()


class TestTheorem2:
    """GENERATESEQ's incrementally maintained sets equal the definitional
    D(i) = N(X(i)) ∩ V_>i — for the greedy ordering and arbitrary ones."""

    def check(self, graph, order):
        seq = SequencedGraph.build(graph, order)
        for i in range(len(order)):
            expect = dependent_set_reference(graph, order, i)
            got = {order[j] for j in seq.dep[i]}
            assert got == expect, f"D({i}) mismatch for order {order}"

    def test_diamond_generate_seq(self, diamond):
        self.check(diamond, generate_seq(diamond))

    def test_diamond_breadth_first(self, diamond):
        self.check(diamond, breadth_first_seq(diamond))

    @settings(max_examples=60, deadline=None)
    @given(small_dags(), st.randoms(use_true_random=False))
    def test_random_graphs_random_orders(self, graph, rnd):
        order = list(graph.node_names)
        rnd.shuffle(order)
        self.check(graph, tuple(order))

    @settings(max_examples=60, deadline=None)
    @given(small_dags())
    def test_random_graphs_generate_seq(self, graph):
        self.check(graph, generate_seq(graph))


class TestConnectedSets:
    """The children and roots `SequencedGraph` reads off ``D(i)`` agree
    with ``X(i)``/``S(i)`` straight from the definitions, on connected
    and disconnected graphs and on any ordering."""

    @settings(max_examples=60, deadline=None)
    @given(sequenced_graphs())
    def test_connected_sets_match_reference(self, case):
        graph, order = case
        seq = SequencedGraph.build(graph, order)
        for i in range(len(order)):
            assert subtree(seq, i) == connected_set_reference(graph, order, i)
        assert list(seq.roots) == component_lasts(graph, order)

    @settings(max_examples=60, deadline=None)
    @given(sequenced_graphs())
    def test_connected_subsets_match_reference(self, case):
        """The children of ``i`` are the last vertices of ``S(i)``'s
        components, in the order of each component's first vertex."""
        graph, order = case
        seq = SequencedGraph.build(graph, order)
        pos = {n: i for i, n in enumerate(order)}
        for i in range(len(order)):
            comps = connected_subsets_reference(graph, order, i)
            assert seq.children[i] == \
                tuple(max(pos[n] for n in c) for c in comps)
            for j, c in zip(seq.children[i], comps):
                assert subtree(seq, j) == c

    @settings(max_examples=60, deadline=None)
    @given(sequenced_graphs())
    def test_subsets_partition_connected_set(self, case):
        """X(i) = v_i plus its children's subtrees, pairwise disjoint
        (Theorem 1 proof's key fact)."""
        graph, order = case
        seq = SequencedGraph.build(graph, order)
        for i in range(len(order)):
            union = {order[i]}
            for j in seq.children[i]:
                sub = subtree(seq, j)
                assert union.isdisjoint(sub)
                union |= sub
            assert union == connected_set_reference(graph, order, i)


class TestOrderingQuality:
    def test_generateseq_beats_bf_on_branchy_graph(self):
        """On an Inception-like branchy graph GENERATESEQ's max dependent
        set must not exceed breadth-first's."""
        from repro.models import inception_v3
        g = inception_v3()
        gs = SequencedGraph.build(g, generate_seq(g))
        bf = SequencedGraph.build(g, breadth_first_seq(g))
        assert gs.max_dependent_size <= 3
        assert bf.max_dependent_size >= 2 * gs.max_dependent_size
