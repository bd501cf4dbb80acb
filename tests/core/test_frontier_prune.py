"""`pareto_prune` returns exactly the indices, in exactly the order, of
the sort-based prune it replaced.

`sorted_prune` below is that implementation, kept verbatim as the
reference: a sort-free pre-filter on each group's min-cost point, then
three composed stable argsorts (a lexsort on group, cost, memory).
`pareto_prune` adds a second corner filter and sorts unstably, resolving
ties itself, so the places it could differ are the ones drawn here:
exact duplicates and cost or memory ties (values from a small set),
points on and just inside each corner of the box, ``-0.0`` next to
``0.0``, negative values, non-dyadic floats, empty and singleton groups,
and groups of hundreds of points.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.frontier import _mem_bucket, pareto_prune


# The reference, verbatim apart from its name.
def sorted_prune(gid: np.ndarray, cost: np.ndarray, mem: np.ndarray, *,
                 eps: float = 0.0) -> np.ndarray:
    """Indices of the non-dominated points of each group, vectorized.

    Within each group (DP cell), point ``j`` is dropped when some point
    ``i`` has ``cost[i] <= cost[j]`` and ``mem[i] <= mem[j]`` — strict
    somewhere, with the deterministic tie-break that among exactly-equal
    pairs the earliest original index survives.

    Returns int64 indices into the inputs, ordered by (group, ascending
    cost, ascending mem); within a group the survivors' memory is
    strictly decreasing, and the group's first survivor is its min-cost
    point (min-memory among exact cost ties).

    With ``eps > 0``, survivors are additionally coarsened to one point
    per geometric memory bucket of width ``(1 + eps)`` — the kept point
    is the bucket's min-cost one, and each group's overall min-cost
    point is always exact.

    Exact in every float comparison: the segmented running-min runs on
    dense integer ranks of ``mem``, so no group-offset arithmetic ever
    perturbs a comparison.
    """
    n = int(cost.shape[0])
    if n == 0:
        return np.empty(0, dtype=np.int64)
    gid = np.asarray(gid, dtype=np.int64)
    if n > 1 and np.any(gid[1:] < gid[:-1]):
        raise ValueError("pareto_prune requires nondecreasing group ids")

    # O(n) pre-filter, no sort: each group's min-cost point (min-memory
    # among its cost ties, value (gmin, m*)) dominates every point with
    # mem >= m* other than its own exact duplicates.  Survivors are the
    # actual frontier candidates — typically a tiny fraction — and only
    # they pay the exact sort-based prune below.
    gstart = np.empty(n, dtype=bool)
    gstart[0] = True
    gstart[1:] = gid[1:] != gid[:-1]
    starts = np.flatnonzero(gstart)
    counts = np.diff(np.append(starts, n))
    gmin = np.minimum.reduceat(cost, starts)
    on_min = cost == np.repeat(gmin, counts)
    m_star = np.minimum.reduceat(np.where(on_min, mem, np.inf), starts)
    m_star_p = np.repeat(m_star, counts)
    cand = (mem < m_star_p) | (on_min & (mem == m_star_p))
    idx0 = np.flatnonzero(cand)
    if idx0.shape[0] == starts.shape[0]:
        # Exactly one candidate per group: already the frontier, already
        # in canonical (group, cost) order — and trivially eps-coarse.
        return idx0

    g2 = gid[idx0]
    c2 = cost[idx0]
    m2 = mem[idx0]
    k = int(idx0.shape[0])
    # For nonnegative floats the IEEE bit pattern is order- (and
    # equality-) preserving as int64.  numpy radix-sorts only integers
    # of 16 bits or less, so a stable sort on int64 is timsort, as on
    # float64; the integer keys just compare cheaper (2M random keys,
    # numpy 2.4 on a 2-vCPU Xeon: 0.35 s against 0.39 s, median of 7).
    # ``+ 0.0`` normalizes -0.0; fall back to float keys on negative
    # input.
    if np.min(c2) >= 0.0 and np.min(m2) >= 0.0:
        ck = (c2 + 0.0).view(np.int64)
        mk = (m2 + 0.0).view(np.int64)
    else:
        ck, mk = c2, m2
    # Stable (group, cost, mem) order built as three composed stable
    # argsorts — exactly np.lexsort((mk, ck, g2)), but the dense memory
    # ranks fall out of the first pass for free.  Exact ties keep
    # ascending original index, so within a group the first point is
    # its min-cost point and a cost-tie class leads with its min-memory
    # member (the forward scan drops the rest).
    o1 = np.argsort(mk, kind="stable")
    ms = mk[o1]
    ranks = np.empty(k, dtype=np.int64)
    step = np.empty(k, dtype=np.int64)
    step[0] = 0
    np.cumsum(ms[1:] != ms[:-1], out=step[1:])
    ranks[o1] = step
    o2 = o1[np.argsort(ck[o1], kind="stable")]
    order = o2[np.argsort(g2[o2], kind="stable")]
    g = g2[order]
    g2start = np.empty(k, dtype=bool)
    g2start[0] = True
    g2start[1:] = g[1:] != g[:-1]
    gdense = np.cumsum(g2start) - 1
    ngroups = int(gdense[-1]) + 1
    # Encode (group, mem rank) so a single running min is a *segmented*
    # one: strictly decreasing per-group offsets make every
    # earlier-group value larger than any current-group value.
    base = np.int64(k + 1)
    enc = ranks[order] + (np.int64(ngroups) - 1 - gdense) * base
    run = np.minimum.accumulate(enc)
    keep = np.empty(k, dtype=bool)
    keep[0] = True
    keep[1:] = enc[1:] < run[:-1]
    if eps > 0.0:
        kidx = np.flatnonzero(keep)
        km = m2[order[kidx]]
        kg = gdense[kidx]
        bucket = _mem_bucket(km, eps)
        first = np.empty(kidx.shape[0], dtype=bool)
        first[0] = True
        first[1:] = (kg[1:] != kg[:-1]) | (bucket[1:] != bucket[:-1])
        keep = np.zeros(k, dtype=bool)
        keep[kidx[first]] = True
    return idx0[order[keep]]


#: A small value set, so exact duplicates and ties on either axis are
#: common; with ``-0.0`` next to ``0.0``, negatives and non-dyadic
#: floats.  The large values straddle eps buckets for eps = 0.5 and 10.
SMALL = [-2.5, -0.0, 0.0, 0.1, 0.3, 0.7, 1.0, 2.0, 3.0, 1e3, 1.1e3, 3e4]

SHAPES = ("small", "wide", "staircase", "corners", "one")


def group_points(rng, size: int, shape: str):
    """One group's (cost, mem) of ``size`` points.

    ``small`` and ``wide`` draw from `SMALL` or from non-dyadic floats
    with repeats; ``staircase`` puts most points on the frontier, with
    duplicates; ``corners`` piles points on both corners of the box and
    on its edges; ``one`` repeats one pair.
    """
    if shape == "small":
        return rng.choice(SMALL, size), rng.choice(SMALL, size)
    if shape == "wide":
        vals = rng.random(max(1, size // 3)) * 100.0 - 10.0
        return rng.choice(vals, size), rng.choice(vals, size)
    if shape == "staircase":
        steps = rng.choice(size, size) / 7.0
        return steps, 1e4 - steps * 3.0 + rng.choice([0.0, 0.1], size)
    if shape == "corners":
        lo_c, hi_c = rng.choice(SMALL[:6], 2)
        lo_m, hi_m = sorted(rng.choice(SMALL[3:], 2))
        cost = rng.choice([lo_c, hi_c, lo_c + 0.1, hi_c + 0.3, 0.0, -0.0],
                          size)
        mem = rng.choice([lo_m, hi_m, lo_m + 0.7, hi_m + 0.1], size)
        return cost, mem
    cost = rng.choice(SMALL)
    return np.full(size, cost), np.full(size, rng.choice(SMALL))


@st.composite
def grouped(draw):
    """Nondecreasing group ids (some skipped: empty groups), points."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    n_groups = draw(st.integers(0, 6))
    gid, cost, mem = [], [], []
    g = 0
    for _ in range(n_groups):
        g += draw(st.integers(1, 3))
        size = draw(st.sampled_from([0, 1, 2, 5, 40, 500]))
        c, m = group_points(rng, size, draw(st.sampled_from(SHAPES)))
        gid.append(np.full(size, g, dtype=np.int64))
        cost.append(np.asarray(c, dtype=np.float64))
        mem.append(np.asarray(m, dtype=np.float64))
    if not gid:
        return (np.empty(0, dtype=np.int64), np.empty(0), np.empty(0))
    return np.concatenate(gid), np.concatenate(cost), np.concatenate(mem)


def assert_same(gid, cost, mem, eps):
    got = pareto_prune(gid, cost, mem, eps=eps)
    want = sorted_prune(gid, cost, mem, eps=eps)
    assert got.dtype == want.dtype == np.int64
    assert np.array_equal(got, want), (got, want)


class TestExactOrder:
    @settings(max_examples=400, deadline=None)
    @given(grouped(), st.sampled_from([0.0, 0.5, 10.0]))
    def test_matches_sorted_prune(self, inputs, eps):
        assert_same(*inputs, eps)

    @pytest.mark.parametrize("eps", [0.0, 0.5, 10.0])
    def test_signed_zero_duplicates_keep_earliest(self, eps):
        """``-0.0`` and ``0.0`` are one value: of the duplicates of each
        corner, the earliest index survives, whichever sign it has."""
        gid = np.zeros(6, dtype=np.int64)
        cost = np.array([0.0, -0.0, 0.0, 1.0, 1.0, -0.0])
        mem = np.array([5.0, 5.0, 7.0, 0.0, -0.0, 5.0])
        assert_same(gid, cost, mem, eps)
        assert pareto_prune(gid, cost, mem).tolist() == [0, 3]

    @pytest.mark.parametrize("eps", [0.0, 0.5, 10.0])
    def test_min_memory_corner_ties(self, eps):
        """Points on the min-memory corner's row: the cheapest survives,
        its duplicates after it and the dearer ones do not."""
        gid = np.zeros(7, dtype=np.int64)
        cost = np.array([3.0, 0.1, 2.0, 2.0, 0.7, 2.0, 5.0])
        mem = np.array([1.0, 9.0, 1.0, 1.0, 4.0, 1.0, 1.0])
        assert_same(gid, cost, mem, eps)
        assert pareto_prune(gid, cost, mem).tolist() == [1, 4, 2]
