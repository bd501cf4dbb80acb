"""Broadcast helpers shared by the tensorized dynamic programs.

DP tables are numpy arrays with one axis per dependent-set vertex (axis
length = that vertex's configuration count).  Summing the recurrence terms
is then a broadcast add of arrays whose axes are *subsets* of the target
axes; the scalar DP minimizes that sum over the candidate-configuration
axis in L2-sized blocks of whole candidate rows, so its transient stays
one block however large the table (HPC guide: vectorize the hot loop,
stay easy on memory).
"""

from __future__ import annotations

import itertools
import math
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
              full_axes: tuple[int, ...], out: np.ndarray) -> None:
    """``out = Σ aligned(term)``, accumulated ``((t0 + t1) + t2)...``.

    Both DP state formats sum their terms in this order, so a cell's
    float association is the same in either.  No terms leaves ``out``
    all zeros.
    """
    _accumulate(out, [aligned_term(arr, axes, full_axes)
                      for arr, axes in terms])


def _accumulate(out: np.ndarray, views: list[np.ndarray]) -> None:
    """``out = ((v0 + v1) + v2)...``; no views leaves ``out`` all zeros."""
    if not views:
        out.fill(0.0)
        return
    np.copyto(out, views[0])
    for view in views[1:]:
        np.add(out, view, out=out)


def _row_min(acc: np.ndarray, n: int, k: int, best: np.ndarray,
             best_arg: np.ndarray) -> None:
    """``best, best_arg = min, argmin`` of the ``n`` rows of ``k`` cells
    that open the flat ``acc``: one argmin scan, then a gather."""
    at = np.empty(n, dtype=np.intp)
    np.argmin(acc[:n * k].reshape(n, k), axis=1, out=at)
    best_arg[...] = at
    at += np.arange(0, n * k, k)
    np.take(acc, at, out=best, mode="clip")


def _strided(view: np.ndarray) -> bool:
    """Whether ``view`` spans the candidate (last) axis non-contiguously."""
    return view.shape[-1] > 1 and view.strides[-1] != view.itemsize


def chunked_min_argmin(
    terms: Iterable[tuple[np.ndarray, tuple[int, ...]]],
    full_axes: tuple[int, ...],
    cfg_axis: int,
    cfg_count: int,
    table_shape: tuple[int, ...],
    chunk_cells: int,
    poll: Callable[[], None] | None = None,
    reserve: Callable[[int], None] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Minimize a broadcast sum of terms over the configuration axis.

    Conceptually computes ``cost = Σ aligned(term)`` over
    ``full_axes = table_axes + (cfg_axis,)``, accumulated ``((t0 + t1) +
    t2)...``, and returns ``(cost.min(-1), cost.argmin(-1))`` (float64 and
    int32, numpy's first-minimum tie-break).  ``cost`` is evaluated in
    blocks of whole candidate rows, at most `kernels._BLOCK_CELLS` and
    ``chunk_cells`` cells but never less than one row: one add per term
    into a block workspace, one argmin over the whole candidate axis and
    a gather of the min.  A table of several blocks first makes every
    term that spans the candidate axis non-contiguously (a transposed
    ``tx``, a child table whose first axis is ``cfg_axis``) contiguous,
    and pre-sums the leading terms, in order, while their broadcast has
    no more cells than the table; a cell's association is unchanged.

    Parameters
    ----------
    terms:
        ``(array, axes)`` pairs; axes are vertex positions, subsets of
        ``full_axes``.
    full_axes:
        Table axes followed by the configuration axis.
    cfg_axis:
        Position label of the candidate vertex (last entry of full_axes).
    cfg_count:
        Number of candidate configurations K_i.
    table_shape:
        Shape over the table axes (full_axes minus cfg_axis).
    chunk_cells:
        Caps a block (never below one row) and spaces the polls.
    poll:
        Optional callable run before every ``max(1, chunk_cells // block
        cells)``-th block after the first (a one-block table never calls
        it); whatever it raises propagates, so a cooperative checkpoint
        can stop a big table mid-way.
    reserve:
        Called once, before anything is allocated, with the bytes the
        call allocates: the returned table and argmin, the block
        workspace and its indices and, for a table of several blocks,
        numpy's loop buffers, the pre-sum and the contiguous copies.
        Whatever it raises propagates.
    """
    if full_axes[-1] != cfg_axis:
        raise ValueError("cfg_axis must be the last of full_axes")
    k = cfg_count
    table_cells = math.prod(table_shape)
    views = [aligned_term(arr, axes, full_axes) for arr, axes in terms]
    rows = max(1, min(chunk_cells, kernels._BLOCK_CELLS) // k)
    # Bytes: the table and its argmin (float64 + int32), and one block
    # with its argmin and row offsets.  A table of several blocks adds
    # the buffers of numpy's buffered ufunc loops (one getbufsize()-cell
    # float64 array for each of up to three operands), the pre-sum and
    # the contiguous copies.  A one-block table leaves its loop buffers
    # (no larger than its cost array) uncharged.
    nbytes = table_cells * 12 + min(rows, table_cells) * (k + 2) * 8
    lead = 1
    if table_cells > rows:
        nbytes += 24 * np.getbufsize()
        shape = views[0].shape if views else ()
        for view in views[1:]:
            # Aligned views share one rank, each axis full or 1.
            wider = tuple(map(max, shape, view.shape))
            if math.prod(wider) > table_cells:
                break
            shape = wider
            lead += 1
        rest = views
        if lead > 1:
            nbytes += math.prod(shape) * 8
            rest = views[lead:]
        nbytes += sum(v.size * v.itemsize for v in rest if _strided(v))
    if reserve is not None:
        reserve(nbytes)
    best = np.empty(table_cells)
    best_arg = np.empty(table_cells, dtype=np.int32)
    if table_cells <= rows:
        # One block.
        acc = np.empty(table_cells * k)
        _accumulate(acc.reshape(table_shape + (k,)), views)
        _row_min(acc, table_cells, k, best, best_arg)
        return best.reshape(table_shape), best_arg.reshape(table_shape)
    if lead > 1:
        pre = np.empty(shape)
        _accumulate(pre, views[:lead])
        views[:lead] = [pre]
    views = [np.ascontiguousarray(v) if _strided(v) else v for v in views]

    # Split the table axes: the trailing ones whose rows fit a block stay
    # whole, the one before them is cut into runs, the rest are indexed.
    cut = len(table_shape)
    inner = 1
    while cut and inner * table_shape[cut - 1] <= rows:
        cut -= 1
        inner *= table_shape[cut]
    run = rows // inner
    size = table_shape[cut - 1]
    spans = [(slice(c0, min(size, c0 + run)), min(size, c0 + run) - c0)
             for c0 in range(0, size, run)]
    # Per term, which of the indexed and cut axes it spans.
    spanned = [tuple(n > 1 for n in v.shape[:cut]) for v in views]

    ws = np.empty(rows * k)
    every = max(1, chunk_cells // (rows * k))
    r0 = blocks = 0
    for head in itertools.product(*map(range, table_shape[:cut - 1])):
        for span, length in spans:
            if blocks and blocks % every == 0 and poll is not None:
                poll()
            blocks += 1
            n = length * inner
            _accumulate(ws[:n * k].reshape((length,) + table_shape[cut:]
                                           + (k,)),
                        [v[tuple(h if o else 0 for h, o in zip(head, on))
                           + (span if on[-1] else slice(None),)]
                         for v, on in zip(views, spanned)])
            _row_min(ws, n, k, best[r0:r0 + n], best_arg[r0:r0 + n])
            r0 += n
    return best.reshape(table_shape), best_arg.reshape(table_shape)
