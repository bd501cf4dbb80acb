"""Kernel correctness for `repro.core.kernels`.

Each numpy kernel is checked against a naive numpy oracle, including
numpy's first-minimum argmin tie-break.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import kernels
from repro.core.kernels import (
    dominance_mask,
    last_axis_min_argmin,
    min_plus_fold,
)


class TestLastAxisMinArgmin:
    def test_matches_naive(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(5, 7, 11))
        vals, args = last_axis_min_argmin(a)
        assert np.array_equal(vals, a.min(-1))
        assert np.array_equal(args, a.argmin(-1))
        assert args.dtype == np.int32

    def test_first_minimum_tie_break(self):
        a = np.array([[2.0, 1.0, 1.0], [0.0, 0.0, 0.0]])
        _, args = last_axis_min_argmin(a)
        assert args.tolist() == [1, 0]

    def test_empty_last_axis_rejected(self):
        with pytest.raises(ValueError, match="empty last axis"):
            last_axis_min_argmin(np.empty((3, 0)))


class TestMinPlusFold:
    @staticmethod
    def _naive(a, bt):
        cube = a[:, None, :] + bt[None, :, :]
        return cube.min(-1), cube.argmin(-1)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 9), st.integers(1, 9),
           st.integers(1, 9))
    def test_matches_naive(self, seed, m, n, k):
        rng = np.random.default_rng(seed)
        # Small integer costs force ties, pinning the argmin order.
        a = rng.integers(0, 4, size=(m, k)).astype(float)
        bt = rng.integers(0, 4, size=(n, k)).astype(float)
        folded, arg = min_plus_fold(a, bt, chunk_cells=10**9)
        nf, na = self._naive(a, bt)
        assert np.array_equal(folded, nf)
        assert np.array_equal(arg, na)

    @pytest.mark.parametrize("chunk", [1, 13, 10**9])
    def test_chunking_invariant(self, chunk):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(17, 6))
        bt = rng.normal(size=(9, 6))
        folded, arg = min_plus_fold(a, bt, chunk_cells=chunk)
        nf, na = self._naive(a, bt)
        assert np.array_equal(folded, nf)
        assert np.array_equal(arg, na)

    @pytest.mark.parametrize("m, n, k", [
        (40, 30, 200),   # 6000-cell rows: several rows per block, 4 blocks
        (3, 300, 250),   # 75000-cell rows: each row exceeds a block
    ])
    def test_cache_blocks_match_naive(self, m, n, k):
        assert n * k * m > kernels._FOLD_BLOCK_CELLS
        rng = np.random.default_rng(m * n * k)
        a = rng.integers(0, 4, size=(m, k)).astype(float)
        bt = rng.integers(0, 4, size=(n, k)).astype(float)
        folded, arg = min_plus_fold(a, bt, chunk_cells=10**9)
        nf, na = self._naive(a, bt)
        assert np.array_equal(folded, nf)
        assert np.array_equal(arg, na)
        assert arg.dtype == np.int32

    def test_k1_fast_path(self):
        a = np.array([[1.0], [2.0]])
        bt = np.array([[10.0], [20.0], [30.0]])
        folded, arg = min_plus_fold(a, bt, chunk_cells=10**9)
        assert np.array_equal(folded, a + bt.T)
        assert not arg.any()

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="inner axes"):
            min_plus_fold(np.zeros((2, 3)), np.zeros((2, 4)),
                          chunk_cells=10**9)


class TestDominanceMaskKernel:
    @staticmethod
    def _naive(prof):
        k = prof.shape[0]
        keep = np.ones(k, dtype=bool)
        for j in range(k):
            for i in range(k):
                if i == j:
                    continue
                le = (prof[i] <= prof[j]).all()
                ge = (prof[i] >= prof[j]).all()
                if le and ((not ge) or i < j):
                    keep[j] = False
                    break
        return keep

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 30), st.integers(1, 7),
           st.integers(1, 4))
    def test_matches_naive(self, seed, k, c, levels):
        rng = np.random.default_rng(seed)
        prof = rng.integers(0, levels, size=(k, c)).astype(float)
        assert np.array_equal(
            dominance_mask(prof, chunk_cells=10**9), self._naive(prof))

    @pytest.mark.parametrize("chunk", [1, 5, 10**9])
    def test_tiny_chunk_budget(self, chunk):
        """The pair-verification loop must survive a budget smaller than
        one pair-column gather (span clamps to 1)."""
        rng = np.random.default_rng(11)
        prof = rng.integers(0, 3, size=(25, 9)).astype(float)
        assert np.array_equal(dominance_mask(prof, chunk_cells=chunk),
                              self._naive(prof))

    def test_wide_profile_exceeding_chunk(self):
        """K*C far beyond chunk_cells — the regime the reference kernel
        silently exceeded — still returns the exact mask."""
        rng = np.random.default_rng(13)
        prof = rng.integers(0, 2, size=(64, 200)).astype(float)
        assert np.array_equal(dominance_mask(prof, chunk_cells=512),
                              self._naive(prof))
