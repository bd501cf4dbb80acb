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
by a gather instead of a second full scan.  The min-plus fold evaluates
its cube in L2-sized blocks (``_FOLD_BLOCK_CELLS``); the dominance mask
first verifies one witness per row and runs its candidate-pair sieve
only among the rows no witness beat.  Every kernel keeps numpy's
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

#: Cells per ``[rows, n, t]`` cube block of the min-plus fold: 64K
#: float64 cells (512 KiB) stay resident in a per-core L2, where the
#: add and the argmin scan run about twice as fast as on a block that
#: streams through memory.
_FOLD_BLOCK_CELLS = 1 << 16


def min_plus_fold(a: np.ndarray, bt: np.ndarray, *,
                  chunk_cells: int) -> tuple[np.ndarray, np.ndarray]:
    """``folded[i, j] = min_t a[i, t] + bt[j, t]`` with its argmin.

    The tropical matrix product behind chain contraction, with the
    second operand already **transposed** (``bt[j, t]``) so the inner
    reduction runs over the last, contiguous axis of both operands.
    Returns ``(folded float64[m, n], arg int32[m, n])``; ties resolve to
    the smallest ``t`` (numpy argmin order).  The ``[rows, n, t]`` cube
    is evaluated in blocks of at most ``_FOLD_BLOCK_CELLS`` cells (and
    never more than ``chunk_cells``): whole rows when one row fits, else
    runs of columns of a single row.  Only the argmin is taken per
    block; the min is one gather-and-add ``a[i, t*] + bt[j, t*]`` at the
    end, the same float addition the cube performed.
    """
    m, k = a.shape
    n, k2 = bt.shape
    if k != k2:
        raise ValueError(f"inner axes disagree: {a.shape} vs {bt.shape}")
    if k == 1:
        # One middle configuration: the fold is a broadcast add.
        folded = a[:, 0][:, None] + bt[:, 0][None, :]
        return folded, np.zeros((m, n), dtype=np.int32)
    block = max(1, min(chunk_cells, _FOLD_BLOCK_CELLS))
    rows = max(1, min(m, block // max(n * k, 1)))
    cols = max(1, min(n, block // max(rows * k, 1)))
    arg = np.empty((m, n), dtype=np.intp)
    for a0 in range(0, m, rows):
        a1 = min(m, a0 + rows)
        for j0 in range(0, n, cols):
            j1 = min(n, j0 + cols)
            cube = _WS.take("fold_cube", (a1 - a0, j1 - j0, k), np.float64)
            np.add(a[a0:a1, None, :], bt[None, j0:j1, :], out=cube)
            np.argmin(cube, axis=-1, out=arg[a0:a1, j0:j1])
    folded = np.take_along_axis(a, arg, axis=1)
    folded += bt[np.arange(n)[None, :], arg]
    return folded, arg.astype(np.int32)


# ---------------------------------------------------------------------------
# Kernel: dominance keep-mask over profile rows
# ---------------------------------------------------------------------------

#: Columns are visited interleaved with this stride, so the seed and the
#: first batches sample every neighbour's block of the profile instead of
#: adjacent, correlated configurations of the first one.
_DOMINANCE_STRIDE = 8

#: Leading (interleaved) columns checked densely, one ``[K, K]``
#: comparison each, before any pair gather runs.
_DOMINANCE_SEED_COLS = 4

#: First column batch of the pair verification; batches double from
#: here so cheap early columns shrink the pair list before any wide
#: gather runs.
_DOMINANCE_SPAN0 = 32


def _verified(prof: np.ndarray, ii: np.ndarray, jj: np.ndarray, c0: int,
              chunk_cells: int) -> np.ndarray:
    """Positions ``q`` with ``prof[ii[q], c] <= prof[jj[q], c]`` on every
    column ``c >= c0``, checked in doubling column batches of
    fancy-indexed gathers of at most ``chunk_cells`` cells."""
    c = prof.shape[1]
    pos = np.arange(ii.size)
    span = _DOMINANCE_SPAN0
    while c0 < c and pos.size:
        span = max(1, min(c - c0, span, chunk_cells // pos.size))
        sub = prof[:, c0:c0 + span]
        ok = (sub[ii] <= sub[jj]).all(axis=-1)
        pos = pos[ok]
        ii = ii[ok]
        jj = jj[ok]
        c0 += span
        span *= 2
    return pos


def dominance_mask(prof: np.ndarray, *, chunk_cells: int) -> np.ndarray:
    """Keep-mask over the rows of a cost profile ``[K, C]``.

    Row ``j`` is dropped when some row ``i`` satisfies elementwise
    ``prof[i] <= prof[j]`` and is either strictly smaller somewhere or,
    on an exact tie, has ``i < j`` (so row 0 survives any all-equal
    class).  This "beats" relation is a strict partial order, so a row
    is dropped exactly when some *undominated* row beats it.

    Candidate pairs ``(i, j)``, ``i != j``, are seeded from necessary
    conditions: the profile **row sum** (elementwise ``<=`` implies
    ``<=`` row sums; float pairwise summation is monotone over a fixed
    tree shape, so the implication survives rounding) and the first
    ``_DOMINANCE_SEED_COLS`` columns, checked exactly.  Columns are
    visited in ``_DOMINANCE_STRIDE``-interleaved order (the relation
    does not depend on column order).  Then two phases:

    1. *Witnesses.*  Each row's first candidate in (row sum, index)
       order, if it comes before the row in that order, is verified on
       the remaining columns.  If it passes, it beats the row (equal
       rows have equal sums, so a smaller sum means a strictly smaller
       column; an equal sum comes with a smaller index) and the row is
       dead.
    2. *Sieve.*  The surviving candidate pairs among the live rows are
       verified on the remaining columns.  Dead rows need no pairs:
       every dominated row is beaten by an undominated one, and those
       are all live.

    Every gather transient is bounded by ``chunk_cells`` cells; the
    ``[K, K]`` boolean relations are output-sized and the interleaved
    copy of the profile input-sized.
    """
    prof = np.asarray(prof, dtype=np.float64)
    k, c = prof.shape
    if k <= 1 or c == 0:
        return np.ones(k, dtype=bool)
    prof = prof[:, np.argsort(np.arange(c) % _DOMINANCE_STRIDE, kind="stable")]
    s = prof.sum(axis=1)
    le = s[:, None] <= s[None, :]
    seed = min(c, _DOMINANCE_SEED_COLS)
    for col in range(seed):
        le &= prof[:, col, None] <= prof[None, :, col]
    np.fill_diagonal(le, False)
    idx = np.arange(k)
    # -- phase 1: one witness per row -------------------------------------
    order = np.argsort(s, kind="stable")
    ahead = le[order]
    ahead &= idx[:, None] < np.argsort(order)[None, :]
    first = ahead.argmax(axis=0)
    jj = np.flatnonzero(ahead[first, idx])
    ii = order[first[jj]]
    live = np.ones(k, dtype=bool)
    live[jj[_verified(prof, ii, jj, seed, chunk_cells)]] = False
    # -- phase 2: candidate-pair sieve among the live rows -----------------
    le &= live[:, None]
    le &= live[None, :]
    pairs = np.flatnonzero(le)
    ii, jj = np.divmod(pairs, k)
    le = np.zeros((k, k), dtype=bool)
    le.flat[pairs[_verified(prof, ii, jj, seed, chunk_cells)]] = True
    beats = le & (~le.T | (idx[:, None] < idx[None, :]))
    return live & ~beats.any(axis=0)
