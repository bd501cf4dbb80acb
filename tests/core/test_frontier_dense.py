"""The frontier DP's two state paths (`repro.core.frontier.PointTable`).

While every merged child holds one point per cell, `PointTable.vertex`
keeps its state dense and reduces over the vertex's own axis by a row
scan; from the first child with a multi-point cell on, it merges by
`_merge_child` over CSR.  The path follows from the children alone, so
the properties here feed one vertex to `PointTable.vertex` and to the
plain CSR chain — every child through `_merge_child`, the last one with
its prune fused with the reduction — and require the same record, bit
for bit.  Two more hold the dense path and one CSR merge chunk to their
byte ledger, and one the scalar DP's vertex (`repro.core.dp.MinTable`)
over tables of several blocks.
"""

import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core._tensorops import aligned_term, sum_terms
from repro.core.dp import MinTable, _Ledger, _MinRecord
from repro.core.frontier import (
    PointTable,
    _merge_child,
    _PointRecord,
    _projection,
    pareto_prune,
)

#: Few distinct values, so sums tie exactly and memories repeat.  0.1
#: and 0.7 are not dyadic, so a changed summation order shows in the
#: last bits; the memories straddle eps buckets for eps = 0.5 and 10.
COSTS = [0.0, 0.1, 0.5, 0.7, 1.0, 1.5, 3.0, 8.0]
MEMS = [1.0, 2.0, 3.0, 5.0, 40.0, 1000.0, 1100.0, 1500.0]


def single_record(rng, n_cells: int) -> _PointRecord:
    """A child table with one point per cell."""
    return _PointRecord(
        offsets=np.arange(n_cells + 1, dtype=np.int64),
        cost=rng.choice(COSTS, n_cells), mem=rng.choice(MEMS, n_cells),
        k=np.zeros(n_cells, dtype=np.int32),
        childpt=np.zeros((n_cells, 0), dtype=np.int32))


def multi_record(rng, n_cells: int) -> _PointRecord:
    """A child table with 1-3 points per cell (at least one cell with
    several), each cell a frontier: cost up, memory down."""
    counts = rng.integers(1, 4, n_cells)
    counts[rng.integers(n_cells)] = 3
    cost, mem = [], []
    for c in counts:
        cost += list(np.cumsum(rng.choice(COSTS[1:], c)))
        mem += list(5000.0 - np.cumsum(rng.choice(MEMS, c)))
    offsets = np.zeros(n_cells + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return _PointRecord(offsets=offsets, cost=np.array(cost),
                        mem=np.array(mem),
                        k=np.zeros(len(cost), dtype=np.int32),
                        childpt=np.zeros((len(cost), 0), dtype=np.int32))


def staircases(rng, counts, step_c: float, step_m: float,
               jitter: float):
    """CSR point sets, each cell cost-ascending and memory-descending:
    ``step_c``/``step_m`` apart, shifted by up to ``jitter`` steps."""
    cost, mem = [], []
    for c in counts:
        j = np.arange(c)
        cost.append(np.sort(j + rng.random(c) * jitter) * step_c)
        mem.append(1e9 - np.sort(j + rng.random(c) * jitter) * step_m)
    offsets = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return offsets, np.concatenate(cost), np.concatenate(mem)


def copy_record(rec: _PointRecord) -> _PointRecord:
    return _PointRecord(rec.offsets, rec.cost.copy(), rec.mem.copy(),
                        rec.k, rec.childpt)


@st.composite
def vertices(draw):
    """One DP vertex: dependent-set shape, own configs, H terms, own
    memory and children, with exact cost ties and equal memories
    planted.  ``pattern`` picks which children hold multi-point cells."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    n_dep = draw(st.integers(0, 3))
    sizes = tuple(draw(st.integers(1, 4)) for _ in range(n_dep))
    k = draw(st.integers(1, 6))
    # Axis labels need not be positions: take them out of order.
    labels = list(rng.permutation(10)[:n_dep + 1])
    dep, i = tuple(int(a) for a in labels[:-1]), int(labels[-1])
    full_axes = dep + (i,)
    full_shape = sizes + (k,)
    terms = [(rng.choice(COSTS, k), (i,))]
    for d, size in zip(dep, sizes):
        if rng.random() < 0.7:
            terms.append((rng.choice(COSTS, (k, size)), (i, d)))
    n_kids = draw(st.integers(0, 3))
    pattern = draw(st.sampled_from(["single", "later-multi", "first-multi",
                                    "random"]))
    kids = []
    for t in range(n_kids):
        axes = tuple(a for a in full_axes if rng.random() < 0.6)
        n_cells = math.prod(full_shape[full_axes.index(a)] for a in axes)
        multi = {"single": False, "later-multi": t == n_kids - 1 and t > 0,
                 "first-multi": t == 0,
                 "random": rng.random() < 0.4}[pattern]
        kids.append((axes, multi_record(rng, n_cells) if multi
                     else single_record(rng, n_cells)))
    own_mem = rng.choice(MEMS, k)
    eps = draw(st.sampled_from([0.0, 0.5, 10.0]))
    chunk = draw(st.sampled_from([3, 1 << 20]))
    return (i, dep, sizes, k, terms, kids, own_mem, eps, chunk)


def csr_chain(i, dep, sizes, k, terms, kids, own_mem, eps, chunk):
    """The record of the all-CSR path: seed one point per full cell,
    merge every child by `_merge_child`, the last one fused with the
    reduction; a leaf prunes its seed grouped by dependent-set cell."""
    full_axes = dep + (i,)
    full_shape = sizes + (k,)
    cells = math.prod(sizes)
    n_full = cells * k
    cost = np.empty(full_shape)
    sum_terms(terms, full_axes, cost)
    mem = np.empty(full_shape)
    np.copyto(mem, aligned_term(own_mem, (i,), full_axes))
    acc = (np.arange(n_full + 1, dtype=np.int64), cost.reshape(-1),
           mem.reshape(-1), np.empty((n_full, 0), dtype=np.int32))
    ledger = _Ledger(1 << 40)
    group = np.repeat(np.arange(cells, dtype=np.int64), k)
    own_k = np.tile(np.arange(k, dtype=np.int32), cells)
    if not kids:
        kept = pareto_prune(group, acc[1], acc[2], eps=eps)
        offsets = np.zeros(cells + 1, dtype=np.int64)
        np.cumsum(np.bincount(group[kept], minlength=cells),
                  out=offsets[1:])
        return (offsets, acc[1][kept], acc[2][kept], own_k[kept],
                acc[3][kept])
    for t, (axes, rec) in enumerate(kids):
        proj = _projection(axes, full_axes, full_shape)
        if t == len(kids) - 1:
            offsets, c, m, childpt, k_arr = _merge_child(
                acc, rec.offsets, rec.cost, rec.mem, proj, eps=eps,
                pair_chunk=chunk, ledger=ledger, group_of_cell=group,
                group_size=k, n_groups=cells, k_of_cell=own_k)
            return offsets, c, m, k_arr, childpt
        acc = _merge_child(acc, rec.offsets, rec.cost, rec.mem, proj,
                           eps=eps, pair_chunk=chunk, ledger=ledger)


def point_table(own_mem, eps, ledger) -> PointTable:
    """A `PointTable` whose one vertex is named ``"v"``."""
    return PointTable(None, None, SimpleNamespace(mem={"v": own_mem}), eps,
                      ledger)


def assert_same(got, want):
    for name, a, b in zip(("offsets", "cost", "mem", "k", "childpt"),
                          got, want):
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


class TestPathEquivalence:
    @settings(max_examples=300, deadline=None)
    @given(vertices())
    def test_vertex_matches_csr_chain(self, vertex):
        i, dep, sizes, k, terms, kids, own_mem, eps, chunk = vertex
        want = csr_chain(i, dep, sizes, k, list(terms),
                         [(a, copy_record(r)) for a, r in kids],
                         own_mem, eps, chunk)
        pt = point_table(own_mem, eps, _Ledger(1 << 40))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("repro.core.kernels._BLOCK_CELLS", chunk)
            rec = pt.vertex(i, "v", dep, sizes, k, list(terms),
                            [(a, copy_record(r)) for a, r in kids])
        assert_same((rec.offsets, rec.cost, rec.mem, rec.k, rec.childpt),
                    want)

    @pytest.mark.parametrize("eps", [0.0, 0.5, 10.0])
    def test_cost_tie_with_less_memory(self, eps):
        """Config 2 ties the cost of the argmin, config 0 (and of its
        duplicate, config 1), with less memory in the same eps bucket:
        the row's min-cost point is config 2, not the argmin."""
        terms = [(np.array([1.5, 1.5, 1.5, 3.0]), (0,))]
        own_mem = np.array([1100.0, 1100.0, 1000.0, 1.0])
        want = csr_chain(0, (), (), 4, terms, [], own_mem, eps, 1 << 20)
        rec = point_table(own_mem, eps, _Ledger(1 << 40)).vertex(
            0, "v", (), (), 4, terms, [])
        assert_same((rec.offsets, rec.cost, rec.mem, rec.k, rec.childpt),
                    want)
        assert rec.k[0] == 2

    def test_mixed_vertex_switches_to_csr(self):
        """Two single-point children, then one with multi-point cells:
        the dense phase hands its state to CSR for the last merge."""
        rng = np.random.default_rng(7)
        dep, sizes, i, k = (0, 1), (3, 4), 2, 5
        terms = [(rng.choice(COSTS, k), (i,)),
                 (rng.choice(COSTS, (k, 4)), (i, 1))]
        kids = [((0,), single_record(rng, 3)),
                ((1, 2), single_record(rng, 20)),
                ((0, 2), multi_record(rng, 15))]
        own_mem = rng.choice(MEMS, k)
        for eps in (0.0, 0.5, 10.0):
            want = csr_chain(i, dep, sizes, k, terms,
                             [(a, copy_record(r)) for a, r in kids],
                             own_mem, eps, 1 << 20)
            rec = point_table(own_mem, eps, _Ledger(1 << 40)).vertex(
                i, "v", dep, sizes, k, terms,
                [(a, copy_record(r)) for a, r in kids])
            assert_same((rec.offsets, rec.cost, rec.mem, rec.k,
                         rec.childpt), want)
            assert rec.childpt.shape[1] == 3
            assert not rec.childpt[:, :2].any()


class TestLedgerHonesty:
    @pytest.mark.parametrize("eps", [0.0, 0.5])
    def test_dense_vertex_peak_within_charge(self, eps):
        """One dense vertex, some of whose rows take the prune: what it
        allocates, as tracemalloc reads it, stays within what it
        charges the ledger."""
        rng = np.random.default_rng(3)
        dep, sizes, i, k = (0, 1), (60, 50), 2, 32
        terms = [(rng.random(k) * 10.0, (i,)),
                 (rng.random((k, 50)), (i, 1))]
        kids = [((0, 2), single_record(rng, 60 * k))]
        # Cost ties and memories below the min-cost point's, spread over
        # several eps buckets, so a share of the rows has candidates.
        kids[0][1].cost[:] = np.round(rng.random(60 * k) * 4.0)
        own_mem = rng.choice([1e3, 1e5, 1e7], k)
        ledger = _Ledger(1 << 40)
        ledger.add(kids[0][1].nbytes())
        pt = point_table(own_mem, eps, ledger)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            ledger.peak = live0 = ledger.live
            rec = pt.vertex(i, "v", dep, sizes, k, terms, kids)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert np.diff(rec.offsets).max() > 1, "no row took the prune"
        assert peak <= ledger.peak - live0

    @pytest.mark.parametrize("eps", [0.0, 0.5])
    @pytest.mark.parametrize("fused", [False, True])
    @pytest.mark.parametrize("survive", [True, False])
    def test_merge_chunk_peak_within_charge(self, survive, fused, eps):
        """One `_merge_child` chunk: what it allocates, as tracemalloc
        reads it, stays within what it charges the ledger — when nearly
        every candidate is on the frontier (the accumulated side's steps
        dwarf the child's, so every sum is a new point) and when the
        prune drops most of them."""
        rng = np.random.default_rng(11)
        cells = 2000
        if survive:
            a_off, a_c, a_m = staircases(rng, [12] * cells, 1e3, 1e6, 0.0)
            b_off, b_c, b_m = staircases(rng, [10] * cells, 1.0, 1e3, 0.0)
        else:
            a_off, a_c, a_m = staircases(rng, rng.integers(1, 24, cells),
                                         10.0, 1e4, 0.9)
            b_off, b_c, b_m = staircases(rng, rng.integers(1, 20, cells),
                                         10.0, 1e4, 0.9)
        acc = (a_off, a_c, a_m, np.zeros((a_c.size, 2), dtype=np.int32))
        total = int(np.dot(np.diff(a_off), np.diff(b_off)))
        fuse = {}
        if fused:
            k = 1 if survive else 4
            fuse = dict(group_of_cell=np.arange(cells) // k, group_size=k,
                        n_groups=cells // k,
                        k_of_cell=(np.arange(cells) % k).astype(np.int32))
        ledger = _Ledger(1 << 40)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = _merge_child(acc, b_off, b_c, b_m,
                               np.arange(cells, dtype=np.int64), eps=eps,
                               pair_chunk=total, ledger=ledger, **fuse)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        kept = out[1].size
        if eps == 0.0:
            assert (kept > 0.9 * total) if survive else (kept < total / 2)
        assert peak <= ledger.peak

    @pytest.mark.parametrize("columns", [4, 10])
    @pytest.mark.parametrize("chunks", [1, 2])
    def test_merge_join_peak_within_charge(self, chunks, columns):
        """A whole `_merge_child` with ``columns`` back-pointer columns,
        one chunk or two: from the join's charge on, what it allocates,
        as tracemalloc reads it, stays within that charge.  A lone
        chunk's arrays are the result uncopied; two chunks are joined by
        a copy of every survivor, and nearly every candidate survives."""
        class JoinLedger(_Ledger):
            def check(self, extra, what, note=""):
                super().check(extra, what, note)
                if what == "frontier DP merge":
                    self.join_charge = extra
                    tracemalloc.reset_peak()

        rng = np.random.default_rng(5)
        cells = 2000
        a_off, a_c, a_m = staircases(rng, [12] * cells, 1e3, 1e6, 0.0)
        b_off, b_c, b_m = staircases(rng, [10] * cells, 1.0, 1e3, 0.0)
        acc = (a_off, a_c, a_m,
               np.zeros((a_c.size, columns - 1), dtype=np.int32))
        total = int(np.dot(np.diff(a_off), np.diff(b_off)))
        ledger = JoinLedger(1 << 40)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = _merge_child(acc, b_off, b_c, b_m,
                               np.arange(cells, dtype=np.int64), eps=0.0,
                               pair_chunk=total * (10 - chunks) // 9,
                               ledger=ledger)
            join_peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert out[3].shape == (out[1].size, columns)
        assert out[1].size > 0.9 * total
        assert join_peak <= ledger.join_charge


@st.composite
def scalar_vertices(draw):
    """One scalar DP vertex whose table has more cells than ``chunk``,
    the block cap it runs under: ``lc``, ``tx`` to most dependent-set
    vertices, stored either way round, and child tables whose first
    axis is the vertex's own (``D(j)[0] = i``), as the DP hands them
    over."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    chunk = draw(st.sampled_from([1024, 4096]))
    k = draw(st.integers(1, 24))
    sizes = [draw(st.integers(2, 40)) for _ in range(draw(st.integers(1, 3)))]
    rest = math.prod(sizes[1:])
    sizes[0] = max(sizes[0], chunk // rest + 1)
    sizes = tuple(sizes)
    dep, i = tuple(range(len(sizes))), len(sizes)
    terms = [(rng.random(k), (i,))]
    for d, size in zip(dep, sizes):
        if rng.random() < 0.8:
            terms.append((rng.random((k, size)) if rng.random() < 0.5
                          else rng.random((size, k)).T, (i, d)))
    kids = []
    for _ in range(draw(st.integers(1, 2))):
        axes = (i,) + tuple(d for d in dep if rng.random() < 0.8)
        table = rng.random(tuple(k if a == i else sizes[a] for a in axes))
        kids.append((axes, _MinRecord(table, np.zeros(0, np.int32))))
    return i, dep, sizes, k, terms, kids, chunk


class TestScalarLedgerHonesty:
    @settings(max_examples=25, deadline=None)
    @given(scalar_vertices())
    def test_vertex_peak_within_charge(self, vertex):
        """One `MinTable.vertex` call over a table of several blocks:
        what it allocates — table, argmin, block, numpy's loop buffers,
        the pre-sum and the contiguous copies of the children —, as
        tracemalloc reads it, stays within what it charges the
        ledger."""
        i, dep, sizes, k, terms, kids, chunk = vertex
        assert math.prod(sizes) > chunk
        ledger = _Ledger(1 << 40)
        for _, rec in kids:
            ledger.add(rec.table.nbytes)
        table = MinTable(ledger, None)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("repro.core.dp._POLL_CELLS", chunk)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                ledger.peak = live0 = ledger.live
                table.vertex(i, "v", dep, sizes, k, terms, kids)
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
        assert peak <= ledger.peak - live0
