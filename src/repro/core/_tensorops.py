"""Broadcast helpers shared by the tensorized dynamic programs.

DP tables are numpy arrays with one axis per dependent-set vertex (axis
length = that vertex's configuration count).  Summing the recurrence terms
is then a broadcast add of arrays whose axes are *subsets* of the target
axes; minimization over the candidate-configuration axis is chunked so the
transient cost array never exceeds a cell budget (HPC guide: vectorize the
hot loop, stay easy on memory).
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

from . import kernels

__all__ = ["aligned_term", "sum_terms", "chunked_min_argmin"]


def aligned_term(arr: np.ndarray, axes: Sequence[int],
                 full_axes: Sequence[int]) -> np.ndarray:
    """View ``arr`` so it broadcasts against an array over ``full_axes``.

    Parameters
    ----------
    arr:
        Term array with one axis per entry of ``axes`` (in that order).
    axes:
        Vertex positions labelling ``arr``'s axes; must be a subset of
        ``full_axes``.
    full_axes:
        Vertex positions labelling the target array's axes.

    Returns
    -------
    numpy.ndarray
        ``arr`` transposed into ``full_axes`` order with singleton axes
        inserted for the missing positions (a view — no copy).
    """
    full_axes = tuple(full_axes)
    axes = tuple(axes)
    if arr.ndim != len(axes):
        raise ValueError(f"term has {arr.ndim} axes but {len(axes)} labels")
    missing = set(axes) - set(full_axes)
    if missing:
        raise ValueError(f"term axes {sorted(missing)} not in target axes")
    rank = {ax: t for t, ax in enumerate(full_axes)}
    perm = sorted(range(len(axes)), key=lambda t: rank[axes[t]])
    if perm != list(range(len(axes))):
        arr = arr.transpose(perm)
    shape = [1] * len(full_axes)
    for t, ax in enumerate(sorted(axes, key=rank.get)):
        shape[rank[ax]] = arr.shape[t]
    return arr.reshape(shape)


def sum_terms(terms: Iterable[tuple[np.ndarray, tuple[int, ...]]],
              full_axes: tuple[int, ...], out: np.ndarray,
              cfg_range: slice | None = None) -> None:
    """``out = Σ aligned(term)``, accumulated ``((t0 + t1) + t2)...``.

    Both DP state formats sum their terms through this one loop, so a
    cell's float association is the same in either.  With ``cfg_range``,
    terms over the candidate axis (the last of ``full_axes``) are
    sliced to it first.  No terms leaves ``out`` all zeros.
    """
    cfg_axis = full_axes[-1]
    first = True
    for arr, axes in terms:
        if cfg_range is not None and cfg_axis in axes:
            sl = [slice(None)] * arr.ndim
            sl[axes.index(cfg_axis)] = cfg_range
            arr = arr[tuple(sl)]
        view = aligned_term(arr, axes, full_axes)
        if first:
            np.copyto(out, view)
            first = False
        else:
            np.add(out, view, out=out)
    if first:
        out.fill(0.0)


def chunked_min_argmin(
    terms: Iterable[tuple[np.ndarray, tuple[int, ...]]],
    full_axes: tuple[int, ...],
    cfg_axis: int,
    cfg_count: int,
    table_shape: tuple[int, ...],
    chunk_cells: int,
    poll: Callable[[], None] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Minimize a broadcast sum of terms over the configuration axis.

    Conceptually computes ``cost = Σ aligned(term)`` over
    ``full_axes = table_axes + (cfg_axis,)`` and returns
    ``(cost.min(-1), cost.argmin(-1))`` — but evaluated in chunks along the
    configuration axis so the transient array stays within ``chunk_cells``
    cells.

    Parameters
    ----------
    terms:
        ``(array, axes)`` pairs; axes are vertex positions, subsets of
        ``full_axes``.  Terms whose axes include ``cfg_axis`` are sliced
        per chunk.
    full_axes:
        Table axes followed by the configuration axis.
    cfg_axis:
        Position label of the candidate vertex (last entry of full_axes).
    cfg_count:
        Number of candidate configurations K_i.
    table_shape:
        Shape over the table axes (full_axes minus cfg_axis).
    chunk_cells:
        Max transient cells per chunk evaluation.
    poll:
        Optional callable run before every chunk after the first (a
        one-chunk table never calls it); whatever it raises propagates,
        so a cooperative checkpoint can stop a big table mid-way.
    """
    if full_axes[-1] != cfg_axis:
        raise ValueError("cfg_axis must be the last of full_axes")
    terms = list(terms)
    table_cells = int(np.prod(table_shape, dtype=np.int64)) if table_shape else 1
    chunk = max(1, min(cfg_count, chunk_cells // max(table_cells, 1)))

    best: np.ndarray | None = None
    best_arg: np.ndarray | None = None
    # One transient buffer reused across every chunk *and* across calls
    # (the per-vertex DP used to allocate up to chunk_cells of float64
    # per vertex, spending more time page-faulting than adding).  Per
    # output cell the addition sequence ((t0 + t1) + t2)... is unchanged,
    # so results stay bit-identical.
    buf = kernels._WS.take("dp_acc", table_shape + (chunk,), np.float64)
    for c0 in range(0, cfg_count, chunk):
        if c0 and poll is not None:
            poll()
        c1 = min(cfg_count, c0 + chunk)
        acc = buf[..., :c1 - c0]
        sum_terms(terms, full_axes, acc, slice(c0, c1))
        # Fused min/argmin: one argmin scan + a gather recovers the min
        # (bit-identical to separate min + argmin, numpy tie-break).
        cand, arg32 = kernels.last_axis_min_argmin(acc)
        if best is None:
            # Sole / first chunk: adopt directly (cand < inf everywhere;
            # both outputs are fresh arrays, not workspace views).
            best = cand
            best_arg = arg32
        else:
            arg = arg32 + c0
            better = cand < best
            best = np.where(better, cand, best)
            best_arg = np.where(better, arg, best_arg)
    if best is None:  # pragma: no cover - cfg_count >= 1 always
        best = np.full(table_shape, np.inf, dtype=np.float64)
        best_arg = np.zeros(table_shape, dtype=np.int32)
    return best, best_arg
