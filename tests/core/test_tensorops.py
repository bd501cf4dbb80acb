"""Tests for the broadcast and blocked-minimization helpers.

`candidate_chunked_min_argmin` is the scalar DP's kernel before it
evaluated whole candidate rows in blocks: chunks of candidate
configurations, each chunk's minimum merged into the running one where
strictly smaller.  The blocked kernel must match it bit for bit.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import kernels
from repro.core._tensorops import (aligned_term, chunked_min_argmin,
                                   sum_terms)

#: Few distinct values, so sums tie exactly; 0.1 and 0.7 are not dyadic,
#: so a changed summation order shows in the last bits.
COSTS = [0.0, 0.1, 0.5, 0.7, 1.0, 1.5, 3.0, 8.0]


def candidate_chunked_min_argmin(terms, full_axes, cfg_axis, cfg_count,
                                 table_shape, chunk_cells):
    """The candidate-chunked kernel: ``cost`` evaluated over chunks of
    whole candidate configurations, at most ``chunk_cells`` cells but at
    least one configuration; a chunk's min replaces the running one
    where strictly smaller."""
    table_cells = math.prod(table_shape)
    chunk = max(1, min(cfg_count, chunk_cells // table_cells))
    best = best_arg = None
    for c0 in range(0, cfg_count, chunk):
        c1 = min(cfg_count, c0 + chunk)
        sliced = []
        for arr, axes in terms:
            if cfg_axis in axes:
                sl = [slice(None)] * arr.ndim
                sl[axes.index(cfg_axis)] = slice(c0, c1)
                arr = arr[tuple(sl)]
            sliced.append((arr, axes))
        acc = np.empty(table_shape + (c1 - c0,))
        sum_terms(sliced, full_axes, acc)
        cand, arg32 = kernels.last_axis_min_argmin(acc)
        if best is None:
            best, best_arg = cand, arg32
        else:
            better = cand < best
            best = np.where(better, cand, best)
            best_arg = np.where(better, arg32 + c0, best_arg)
    return best, best_arg


@st.composite
def term_sets(draw):
    """One DP vertex's terms: ``lc``; ``tx`` to some dependent-set
    vertices, stored either way round; child tables whose first axis is
    the candidate axis; maybe a term over any axes in any order and a
    0-d constant.  Values tie exactly and span magnitudes, axis labels
    come out of order, and the chunk is often smaller than the table."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_dep = draw(st.integers(0, 3))
    sizes = tuple(draw(st.integers(1, 7)) for _ in range(n_dep))
    k = draw(st.sampled_from([1, 2, 3, 5, 8, 13]))
    labels = [int(a) for a in rng.permutation(10)[:n_dep + 1]]
    dep, i = tuple(labels[:-1]), labels[-1]
    size = dict(zip(dep, sizes))
    size[i] = k

    def values(shape):
        return rng.choice(COSTS, shape) * rng.choice([1.0, 1e3, 1e9])

    terms = [(values(k), (i,))]
    for d in dep:
        if rng.random() < 0.7:
            tx = (values((k, size[d])) if rng.random() < 0.5
                  else values((size[d], k)).T)
            terms.append((tx, (i, d)))
    for _ in range(draw(st.integers(0, 3))):
        axes = (i,) + tuple(d for d in dep if rng.random() < 0.7)
        terms.append((values(tuple(size[a] for a in axes)), axes))
    if draw(st.booleans()):
        # Any axes, in any order.
        axes = tuple(int(a) for a in rng.permutation(dep + (i,))
                     if rng.random() < 0.7)
        terms.append((values(tuple(size[a] for a in axes)), axes))
    if draw(st.booleans()):
        terms.insert(int(rng.integers(len(terms) + 1)),
                     (np.array(values(())), ()))
    chunk = draw(st.sampled_from([1, 3, 7, 16, 64, 1 << 20]))
    return terms, dep + (i,), i, k, sizes, chunk


class TestAlignedTerm:
    def test_identity(self):
        a = np.arange(6.0).reshape(2, 3)
        out = aligned_term(a, (0, 1), (0, 1))
        assert np.array_equal(out, a)

    def test_inserts_singletons(self):
        a = np.arange(3.0)
        out = aligned_term(a, (5,), (2, 5, 9))
        assert out.shape == (1, 3, 1)

    def test_transposes_into_target_order(self):
        a = np.arange(6.0).reshape(2, 3)  # axes (7, 4)
        out = aligned_term(a, (7, 4), (4, 7))
        assert out.shape == (3, 2)
        assert np.array_equal(out, a.T)

    def test_wrong_rank(self):
        with pytest.raises(ValueError, match="axes"):
            aligned_term(np.zeros((2, 2)), (1,), (1, 2))

    def test_axis_not_in_target(self):
        with pytest.raises(ValueError, match="not in target"):
            aligned_term(np.zeros(2), (9,), (1, 2))

    def test_scalar_term_no_axes(self):
        """A 0-d term (no axes) broadcasts as an all-singleton view."""
        a = np.array(7.5)
        out = aligned_term(a, (), (0, 1))
        assert out.shape == (1, 1)
        assert out[0, 0] == 7.5

    def test_scalar_target(self):
        """Empty target axes: a 0-d term stays 0-d."""
        a = np.array(3.0)
        out = aligned_term(a, (), ())
        assert out.shape == ()
        assert float(out) == 3.0

    def test_broadcast_sum_semantics(self):
        rng = np.random.default_rng(0)
        a = rng.random((4,))       # axis 0
        b = rng.random((5,))       # axis 1
        c = rng.random((4, 5))     # axes 0, 1
        total = aligned_term(a, (0,), (0, 1)) + \
            aligned_term(b, (1,), (0, 1)) + c
        assert total.shape == (4, 5)
        assert total[2, 3] == pytest.approx(a[2] + b[3] + c[2, 3])


class TestChunkedMinArgmin:
    def full_reference(self, terms, full_axes, table_shape, kc):
        acc = np.zeros(table_shape + (kc,))
        for arr, axes in terms:
            acc = acc + aligned_term(arr, axes, full_axes)
        return acc.min(-1), acc.argmin(-1)

    def run_both(self, terms, full_axes, cfg_axis, kc, table_shape, chunk):
        got = chunked_min_argmin(terms, full_axes, cfg_axis, kc,
                                 table_shape, chunk)
        ref = self.full_reference(terms, full_axes, table_shape, kc)
        assert np.allclose(got[0], ref[0])
        assert np.array_equal(got[1], ref[1])

    def test_single_term(self):
        rng = np.random.default_rng(1)
        lc = rng.random(7)
        self.run_both([(lc, (3,))], (3,), 3, 7, (), chunk=100)

    def test_matches_unchunked(self):
        rng = np.random.default_rng(2)
        ka, kb, kc = 3, 4, 5
        terms = [
            (rng.random(kc), (9,)),
            (rng.random((kc, ka)), (9, 1)),
            (rng.random((ka, kb)), (1, 2)),
            (rng.random((kb,)), (2,)),
        ]
        self.run_both(terms, (1, 2, 9), 9, kc, (ka, kb), chunk=10**9)

    @pytest.mark.parametrize("chunk", [1, 2, 7, 13])
    def test_chunk_sizes_agree(self, chunk):
        rng = np.random.default_rng(3)
        ka, kc = 4, 6
        terms = [(rng.random(kc), (9,)), (rng.random((ka, kc)), (1, 9))]
        self.run_both(terms, (1, 9), 9, kc, (ka,), chunk=chunk)

    def test_no_terms_zero_cost(self):
        table, arg = chunked_min_argmin([], (0,), 0, 3, (), 100)
        assert table == 0.0 and arg == 0

    def test_cfg_axis_must_be_last(self):
        with pytest.raises(ValueError):
            chunked_min_argmin([], (0, 1), 0, 3, (2,), 100)

    def test_tie_breaks_to_lowest_index(self):
        lc = np.zeros(4)
        table, arg = chunked_min_argmin([(lc, (0,))], (0,), 0, 4, (), 2)
        assert arg == 0

    def test_scalar_target_with_constant_term(self):
        """0-d table (no dependent axes) plus a 0-d constant term."""
        lc = np.array([5.0, 2.0, 9.0])
        const = np.array(1.0)
        table, arg = chunked_min_argmin([(lc, (4,)), (const, ())],
                                        (4,), 4, 3, (), 100)
        assert table.shape == () and arg.shape == ()
        assert float(table) == pytest.approx(3.0)
        assert int(arg) == 1

    def test_single_chunk_equals_multi_chunk(self):
        """chunk >= K (one pass) and chunk forcing K passes must agree
        exactly — values and argmins."""
        rng = np.random.default_rng(4)
        ka, kc = 5, 9
        terms = [(rng.random(kc), (9,)), (rng.random((ka, kc)), (1, 9))]
        one = chunked_min_argmin(terms, (1, 9), 9, kc, (ka,), 10**9)
        many = chunked_min_argmin(terms, (1, 9), 9, kc, (ka,), 1)
        assert np.array_equal(one[0], many[0])
        assert np.array_equal(one[1], many[1])

    def _alloc_per_term_reference(self, terms, full_axes, cfg_axis,
                                  cfg_count, table_shape, chunk_cells):
        """A candidate-chunked reference with a fresh array per term per
        chunk.  The blocked kernel must match it bit for bit."""
        terms = list(terms)
        table_cells = int(np.prod(table_shape)) if table_shape else 1
        chunk = max(1, min(cfg_count, chunk_cells // max(table_cells, 1)))
        best = np.full(table_shape, np.inf, dtype=np.float64)
        best_arg = np.zeros(table_shape, dtype=np.int32)
        for c0 in range(0, cfg_count, chunk):
            c1 = min(cfg_count, c0 + chunk)
            acc = None
            for arr, axes in terms:
                if cfg_axis in axes:
                    sl = [slice(None)] * arr.ndim
                    sl[axes.index(cfg_axis)] = slice(c0, c1)
                    piece = arr[tuple(sl)]
                else:
                    piece = arr
                view = aligned_term(piece, axes, full_axes)
                acc = view.astype(np.float64) if acc is None else acc + view
            if acc is None:
                acc = np.zeros(table_shape + (c1 - c0,), dtype=np.float64)
            else:
                acc = np.broadcast_to(acc, table_shape + (c1 - c0,))
            cand = acc.min(axis=-1)
            arg = acc.argmin(axis=-1).astype(np.int32) + c0
            better = cand < best
            best = np.where(better, cand, best)
            best_arg = np.where(better, arg, best_arg)
        return best, best_arg

    @pytest.mark.parametrize("chunk", [1, 3, 17, 10**9])
    def test_buffer_reuse_bit_identical_to_per_term_alloc(self, chunk):
        rng = np.random.default_rng(7)
        ka, kb, kc = 4, 3, 11
        terms = [
            (rng.random(kc) * 1e12, (9,)),
            (rng.random((kc, ka)) * 1e9, (9, 1)),
            (rng.random((ka, kb)), (1, 2)),
            (rng.random((kb, kc)) * 1e6, (2, 9)),
        ]
        args = (terms, (1, 2, 9), 9, kc, (ka, kb), chunk)
        got = chunked_min_argmin(*args)
        ref = self._alloc_per_term_reference(*args)
        assert np.array_equal(got[0], ref[0])  # bit-identical, not allclose
        assert np.array_equal(got[1], ref[1])

    def test_term_axes_not_in_target_raises(self):
        """A mislabelled term surfaces aligned_term's error, not a
        silent mis-broadcast."""
        bad = [(np.zeros((2, 3)), (0, 7))]
        with pytest.raises(ValueError, match="not in target"):
            chunked_min_argmin(bad, (0, 1), 1, 3, (2,), 100)

    def test_deadline_exceeded(self):
        """``poll`` runs before every ``max(1, chunk_cells // block
        cells)``-th block after the first, never for a one-block table,
        and whatever it raises propagates."""
        rng = np.random.default_rng(8)
        terms = [(rng.random(8), (9,)), (rng.random((3, 8)), (1, 9))]
        args = (terms, (1, 9), 9, 8, (3,))
        calls = []
        chunked_min_argmin(*args, 6, poll=lambda: calls.append(1))
        assert calls == [1] * 2          # blocks of one 8-cell row: 3
        calls.clear()
        chunked_min_argmin(*args, 24, poll=lambda: calls.append(1))
        assert calls == []               # one block: never polled
        with pytest.raises(ZeroDivisionError):
            chunked_min_argmin(*args, 6, poll=lambda: 1 / 0)
        # Blocks capped at `kernels._BLOCK_CELLS`: 8192 rows of 8 cells,
        # two runs over each of 3 leading indices; a poll every third.
        terms = [(rng.random(8), (9,)), (rng.random((3, 10000, 8)),
                                         (1, 2, 9))]
        calls.clear()
        chunked_min_argmin(terms, (1, 2, 9), 9, 8, (3, 10000),
                           3 * kernels._BLOCK_CELLS,
                           poll=lambda: calls.append(1))
        assert calls == [1]              # 6 blocks, polled before the 4th

    def test_reserve_called_once_before_allocating(self):
        """``reserve`` sees the call's bytes once, and what it raises
        propagates."""
        rng = np.random.default_rng(9)
        terms = [(rng.random(8), (9,)), (rng.random((8, 3)), (9, 1))]
        seen = []
        chunked_min_argmin(terms, (1, 9), 9, 8, (3,), 8,
                           reserve=seen.append)
        assert len(seen) == 1 and seen[0] > 3 * 12

        def refuse(nbytes):
            raise MemoryError(nbytes)

        with pytest.raises(MemoryError):
            chunked_min_argmin(terms, (1, 9), 9, 8, (3,), 8, reserve=refuse)

    @settings(max_examples=200, deadline=None)
    @given(term_sets())
    def test_matches_candidate_chunked_oracle(self, case):
        """Blocks of whole candidate rows, pre-summed leading terms and
        contiguous copies reproduce the candidate-chunked kernel: values
        and argmins bit for bit."""
        terms, full_axes, i, k, sizes, chunk = case
        got = chunked_min_argmin(terms, full_axes, i, k, sizes, chunk)
        want = candidate_chunked_min_argmin(terms, full_axes, i, k, sizes,
                                            chunk)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.shape == b.shape == sizes
            assert a.tobytes() == b.tobytes()
