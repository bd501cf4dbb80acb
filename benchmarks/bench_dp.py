"""DP search perf guard: plain FINDBESTSTRATEGY vs the reduced path.

For each benchmark network and device count this runs the DP twice —
once directly and once through ``reduce=True`` (the production "auto"
mode: config dominance pruning + linear-chain contraction, auto-bypassed
when the predicted plain-DP work is below the bypass ratio) — and
records wall time plus the number of DP table cells each variant
evaluates.  The reduction is exact by construction, so the test asserts
the two runs recover strategies of *bit-identical* normalized cost.

Timing protocol (like ``bench_obs.py``): best-of-``BEST_OF`` with the
two variants interleaved to decorrelate machine noise, and up to
``ROUNDS`` fresh measurement rounds before a timing assert fails so one
scheduler hiccup cannot flake CI.  Rows whose warm pass exceeds
``SLOW_SECONDS`` (the p=64 giants) are measured once per round instead.
The perf guard itself:

* rows where the reduction **ran** must be strictly faster than the
  plain DP (``reduced_seconds < plain_seconds``);
* rows where it was **bypassed** are the plain DP plus a cheap
  closed-form predictor, so they must tie within ``BYPASS_TOLERANCE``.

``reduced_seconds`` *includes* the reduction phase
(``reduction_seconds``) — it is the end-to-end cost of asking for the
reduced path.  The device grid comes from ``PASE_BENCH_DP_PS``
(comma-separated, default ``16,64``); CI runs ``16,32``.  Timings land
in ``PASE_BENCH_OUT`` when it is set.  Otherwise only the default grid
writes them, to ``BENCH_dp.json``, the committed record of that grid;
any other grid writes no file.

This needs no pytest-benchmark plugin, so CI can smoke it with the base
test toolchain:

    PYTHONPATH=src python -m pytest benchmarks/bench_dp.py
"""

import json
import os
import time

import pytest

from repro.core.configs import ConfigSpace
from repro.core.costmodel import CostModel
from repro.core.dp import find_best_strategy
from repro.core.machine import GTX1080TI
from repro.models import BENCHMARKS

NETWORKS = ("alexnet", "inception_v3", "rnnlm", "transformer")

#: The default device grid, the paper-scale sweep ``BENCH_dp.json``
#: records.
DEFAULT_PS = (16, 64)
#: Device counts exercised; CI pins "16,32" for the perf guard (the
#: auto-bypass skips inception_v3's reduction at p=16 but not at p=32).
PS = tuple(int(tok) for tok in os.environ.get(
    "PASE_BENCH_DP_PS", ",".join(map(str, DEFAULT_PS))).split(","))

BEST_OF = 5
ROUNDS = 3
SLOW_SECONDS = 5.0
BYPASS_TOLERANCE = 1.10
#: Absolute slack for bypassed rows: the bypass predictor costs a fixed
#: few dozen microseconds, which dwarfs 10% of a sub-millisecond DP.
BYPASS_SLACK_SECONDS = 0.005


def _bypass_ok(t_red, t_plain):
    return t_red <= t_plain * BYPASS_TOLERANCE + BYPASS_SLACK_SECONDS

_RESULTS: dict[str, dict[str, float]] = {}


@pytest.fixture(scope="module", autouse=True)
def _write_results():
    yield
    out = os.environ.get("PASE_BENCH_OUT",
                         "BENCH_dp.json" if PS == DEFAULT_PS else None)
    if not _RESULTS:
        return
    if out is None:
        print(f"\n# DP search timings at p={PS} not written: BENCH_dp.json "
              f"records p={DEFAULT_PS}; set PASE_BENCH_OUT to keep them")
        return
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(_RESULTS, fh, indent=2, sort_keys=True)
    print(f"\n# DP search timings written to {out}")


def _interleaved(run_plain, run_red, reps):
    """Best-of-``reps`` for both runners, alternated so drift hits both.

    Returns the result object of each runner's *best-timed* rep, so the
    recorded stats (e.g. ``reduction_seconds``) are consistent with the
    reported wall time."""
    t_plain = t_red = float("inf")
    plain = red = None
    for _ in range(reps):
        t0 = time.perf_counter()
        res = run_plain()
        dt = time.perf_counter() - t0
        if dt < t_plain:
            t_plain, plain = dt, res
        t0 = time.perf_counter()
        res = run_red()
        dt = time.perf_counter() - t0
        if dt < t_red:
            t_red, red = dt, res
    return t_plain, plain, t_red, red


@pytest.mark.parametrize("p", PS)
@pytest.mark.parametrize("net", NETWORKS)
def test_dp_plain_vs_reduced(net, p):
    graph = BENCHMARKS[net]()
    space = ConfigSpace.build(graph, p, mode="pow2")
    tables = CostModel(GTX1080TI).build_tables(graph, space)

    def run_plain():
        return find_best_strategy(graph, space, tables)

    def run_red():
        return find_best_strategy(graph, space, tables, reduce=True)

    # Warm pass: populates the kernel workspaces and page cache, and
    # doubles as rep-count calibration so the p=64 giants are not run
    # five times over.
    t0 = time.perf_counter()
    plain = run_plain()
    t_plain = time.perf_counter() - t0
    t0 = time.perf_counter()
    red = run_red()
    t_red = time.perf_counter() - t0
    reps = BEST_OF if t_plain + t_red < SLOW_SECONDS else 1

    bypassed = bool(red.stats.get("reduction_bypassed"))
    rounds_used = 0
    for attempt in range(ROUNDS):
        rounds_used = attempt + 1
        tp, p_res, tr, r_res = _interleaved(run_plain, run_red, reps)
        if tp < t_plain:
            t_plain, plain = tp, p_res
        if tr < t_red:
            t_red, red = tr, r_res
        ok = _bypass_ok(t_red, t_plain) if bypassed else (t_red < t_plain)
        if ok:
            break

    # Exactness: identical optimal cost, bit for bit, when both optima
    # are evaluated through the same normalized oracle.
    assert plain.strategy.cost(tables) == red.strategy.cost(tables), \
        f"{net} p={p}: reduced DP lost the optimum"
    red.strategy.validate(graph, p)

    cells_plain = plain.stats["cells"]
    cells_red = red.stats["cells"]
    assert cells_red <= cells_plain, f"{net} p={p}: reduction grew the DP"

    _RESULTS[f"{net}_p{p}"] = {
        "p": float(p),
        "plain_seconds": t_plain,
        "plain_cells": cells_plain,
        "reduced_seconds": t_red,  # includes reduction_seconds
        "reduced_cells": cells_red,
        "reduction_seconds": red.stats.get("reduction_seconds", 0.0),
        "reduction_bypassed": red.stats.get("reduction_bypassed", 0.0),
        "vertices_removed": red.stats.get("reduction_vertices_removed", 0.0),
        "configs_removed": red.stats.get("reduction_configs_removed", 0.0),
        "cell_reduction_pct": (100.0 * (1.0 - cells_red / cells_plain)
                               if cells_plain else 100.0),
        "rounds_used": float(rounds_used),
    }

    # The perf guard: asking for the reduced path must never cost wall
    # clock — strictly faster where the reduction runs, a statistical
    # tie where the auto-bypass fell back to the plain DP.
    if bypassed:
        assert _bypass_ok(t_red, t_plain), \
            (f"{net} p={p}: bypassed reduced path {t_red:.4f}s not within "
             f"{BYPASS_TOLERANCE:.2f}x (+{BYPASS_SLACK_SECONDS}s) of plain "
             f"{t_plain:.4f}s")
    else:
        assert t_red < t_plain, \
            (f"{net} p={p}: reduced path {t_red:.4f}s slower than plain "
             f"{t_plain:.4f}s")


def test_reduction_effective_where_it_runs():
    """The auto-bypass must not go degenerate, and where the reduction
    does run it must still clear the 30% cell-reduction floor."""
    assert len(_RESULTS) == len(NETWORKS) * len(PS), \
        "run the full parametrize first"
    ran = [key for key, r in _RESULTS.items() if not r["reduction_bypassed"]]
    assert ran, "auto-bypass skipped the reduction on every row"
    weak = [key for key in ran
            if _RESULTS[key]["cell_reduction_pct"] < 30.0]
    assert not weak, f"{weak} ran the reduction but removed <30% of DP cells"
