"""The numpy kernels behind the two hot search loops.

The wall-clock of the whole strategy search is dominated by two inner
loops:

* the **DP chunk reduction** — min/argmin over the candidate-configuration
  axis of the broadcast cost sum (`repro.core._tensorops.chunked_min_argmin`);
* the **reduction fold** — the TensorOpt-style min-plus contraction
  ``min_k A[i, k] + B[k, j]`` with argmin records, plus the dominance
  keep-mask, in `repro.core.reduction`.

This module is the single implementation of all three kernels, tuned so
every reduction runs over the **last, contiguous** axis (a transposed
layout for the min-plus fold) and the min is recovered from the argmin
by a gather instead of a second full scan.  Every kernel keeps numpy's
first-minimum tie-break, pinned against naive oracles by
``tests/core/test_kernels.py``.
"""

from __future__ import annotations

import threading

import numpy as np

__all__ = [
    "last_axis_min_argmin",
    "min_plus_fold",
    "dominance_mask",
]


# ---------------------------------------------------------------------------
# Scratch buffers
# ---------------------------------------------------------------------------

class _Workspace(threading.local):
    """Per-thread scratch arrays, grown geometrically and reused.

    The hot kernels are called thousands of times per search with
    similar transient sizes; a fresh ``np.empty`` each call keeps the
    allocator mmap'ing and page-faulting multi-megabyte blocks (measured
    ~3x the arithmetic cost on the reduction fold).  Buffers are only
    ever *written through* ``out=`` before being read, so reuse cannot
    leak values between calls.
    """

    def __init__(self) -> None:
        self._bufs: dict[str, np.ndarray] = {}

    def get(self, name: str, cells: int, dtype) -> np.ndarray:
        buf = self._bufs.get(name)
        if buf is None or buf.size < cells:
            buf = np.empty(int(cells * 1.25) + 16, dtype=dtype)
            self._bufs[name] = buf
        return buf

    def take(self, name: str, shape: tuple[int, ...], dtype) -> np.ndarray:
        cells = 1
        for s in shape:
            cells *= int(s)
        return self.get(name, cells, dtype)[:cells].reshape(shape)


_WS = _Workspace()


# ---------------------------------------------------------------------------
# Kernel: fused min/argmin over the last (contiguous) axis
# ---------------------------------------------------------------------------

def last_axis_min_argmin(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(a.min(-1), a.argmin(-1))`` in one logical pass.

    Returns ``(vals float64[...], args int32[...])`` with numpy's
    first-minimum tie-break.  The min is recovered from the argmin by a
    gather (one scan + one gather instead of two scans).
    """
    if a.shape[-1] == 0:
        raise ValueError("cannot reduce over an empty last axis")
    args64 = a.argmin(axis=-1)
    vals = np.take_along_axis(a, args64[..., None], axis=-1)[..., 0]
    return vals, args64.astype(np.int32)


# ---------------------------------------------------------------------------
# Kernel: min-plus fold (tropical matmul) with argmin records
# ---------------------------------------------------------------------------

def min_plus_fold(a: np.ndarray, bt: np.ndarray, *,
                  chunk_cells: int) -> tuple[np.ndarray, np.ndarray]:
    """``folded[i, j] = min_t a[i, t] + bt[j, t]`` with its argmin.

    The tropical matrix product behind chain contraction, with the
    second operand already **transposed** (``bt[j, t]``) so the inner
    reduction runs over the last, contiguous axis of both operands.
    Returns ``(folded float64[m, n], arg int32[m, n])``; ties resolve to
    the smallest ``t`` (numpy argmin order).  The ``[rows, n, t]`` cube
    is evaluated in row blocks so the transient stays
    within ``chunk_cells`` cells.
    """
    m, k = a.shape
    n, k2 = bt.shape
    if k != k2:
        raise ValueError(f"inner axes disagree: {a.shape} vs {bt.shape}")
    if k == 1:
        # One middle configuration: the fold is a broadcast add.
        folded = a[:, 0][:, None] + bt[:, 0][None, :]
        return folded, np.zeros((m, n), dtype=np.int32)
    folded = np.empty((m, n), dtype=np.float64)
    arg = np.empty((m, n), dtype=np.int32)
    rows = max(1, min(m, chunk_cells // max(k * n, 1)))
    for a0 in range(0, m, rows):
        a1 = min(m, a0 + rows)
        cube = _WS.take("fold_cube", (a1 - a0, n, k), np.float64)
        np.add(a[a0:a1, None, :], bt[None, :, :], out=cube)  # [rows, n, t]
        args64 = cube.argmin(axis=-1)
        folded[a0:a1] = np.take_along_axis(
            cube, args64[..., None], axis=-1)[..., 0]
        arg[a0:a1] = args64
    return folded, arg


# ---------------------------------------------------------------------------
# Kernel: dominance keep-mask over profile rows
# ---------------------------------------------------------------------------

#: First pair-pass column batch of the dominance kernel; batches
#: double from here so cheap early columns shrink the pair list before
#: any wide gather runs.
_DOMINANCE_SPAN0 = 32


def dominance_mask(prof: np.ndarray, *, chunk_cells: int) -> np.ndarray:
    """Keep-mask over the rows of a cost profile ``[K, C]``.

    Row ``j`` is dropped when some row ``i`` satisfies elementwise
    ``prof[i] <= prof[j]`` and is either strictly smaller somewhere or,
    on an exact tie, has ``i < j`` (so row 0 survives any all-equal
    class).  Dominators do not need to survive themselves — the "beats"
    relation is a strict partial order, so every dropped row keeps a
    surviving witness.

    The kernel seeds candidate pairs from two cheap necessary
    conditions — the layer-cost column (column 0, checked exactly) and
    the profile **row sum** (elementwise ``<=`` implies ``<=`` row sums;
    float pairwise summation is monotone over a fixed tree shape, so the
    implication survives rounding) — then verifies survivors against the
    remaining columns in doubling batches of fancy-indexed gathers.
    Every gather transient is bounded by ``chunk_cells`` cells; the
    ``[K, K]`` boolean relation itself is output-sized.
    """
    prof = np.ascontiguousarray(prof, dtype=np.float64)
    k, c = prof.shape
    if k <= 1 or c == 0:
        return np.ones(k, dtype=bool)
    # -- seed: row-sum filter (necessary) + column 0 (exact) ---------------
    s = prof.sum(axis=1)
    le = s[:, None] <= s[None, :]
    le &= prof[:, 0][:, None] <= prof[None, :, 0]
    if c > 1:
        # -- verify surviving candidate pairs on the remaining columns ----
        pairs = np.flatnonzero(le)
        ii, jj = np.divmod(pairs, k)
        c0 = 1
        span = _DOMINANCE_SPAN0
        while c0 < c and pairs.size:
            span = max(1, min(c - c0, span, chunk_cells // pairs.size))
            sub = prof[:, c0:c0 + span]
            ok = (sub[ii] <= sub[jj]).all(axis=-1)
            pairs = pairs[ok]
            ii = ii[ok]
            jj = jj[ok]
            c0 += span
            span *= 2
        le = np.zeros((k, k), dtype=bool)
        le.flat[pairs] = True
    idx = np.arange(k)
    beats = le & (~le.T | (idx[:, None] < idx[None, :]))
    return ~beats.any(axis=0)
