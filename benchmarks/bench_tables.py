"""Cost-table construction perf guard: serial vs auto-selected backend.

For each network this times `CostModel.build_tables` serial and with
``jobs=JOBS`` (auto backend selection: serial or threads from the
measured work cells and core count), forces one ``threads:2`` build,
asserts every variant is bit-identical to the serial reference, and
proves the warm cache hit never touches the matrix constructors.

Timing protocol (like ``bench_dp.py``): best-of-``BEST_OF`` with the two
variants interleaved to decorrelate machine noise, and up to ``ROUNDS``
fresh measurement rounds before a timing assert fails so one scheduler
hiccup cannot flake CI.  The perf guard itself: wherever the auto rule
selects a *parallel* backend, the parallel build must tie-or-beat the
serial one within ``TOLERANCE`` (10% + 5ms) — a "parallel" path that
loses wall clock is a regression and fails CI.  Rows where auto resolves
to serial (small work, single core) time the resolution overhead instead
and are held to the same tie tolerance.

Timings land in ``BENCH_tables.json`` (override with ``PASE_BENCH_OUT``),
one row per network: ``backend`` records the auto-selected backend by
name, ``serial_seconds``/``parallel_seconds`` are best-of timings and
the other ``*_seconds`` single runs.

Unlike the other bench modules this one needs no pytest-benchmark
plugin, so CI can smoke it with the base test toolchain:

    PYTHONPATH=src python -m pytest benchmarks/bench_tables.py
"""

import json
import os
import time

import numpy as np
import pytest

from repro.core.configs import ConfigSpace
from repro.core.costmodel import CostModel
from repro.core.machine import GTX1080TI
from repro.core.tablecache import TableCache
from repro.models import BENCHMARKS
from repro.runtime import RunContext
from _config import FULL

NETWORKS = ("inception_v3", "transformer")
P = 32 if FULL else 16
#: At least two workers so auto-selection has room even on small CI
#: boxes (it may still resolve to serial on a single core — recorded,
#: and then the guard degenerates to serial-vs-serial).
JOBS = max(2, os.cpu_count() or 1)

BEST_OF = 5
ROUNDS = 3
TOLERANCE = 1.10
#: Absolute slack: backend resolution costs microseconds, which dwarfs
#: 10% of a millisecond-scale build.
SLACK_SECONDS = 0.005

_RESULTS: dict[str, dict[str, object]] = {}


def _guard_ok(t_par, t_serial):
    return t_par <= t_serial * TOLERANCE + SLACK_SECONDS


@pytest.fixture(scope="module", autouse=True)
def _write_results():
    yield
    if _RESULTS:
        out = os.environ.get("PASE_BENCH_OUT", "BENCH_tables.json")
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(_RESULTS, fh, indent=2, sort_keys=True)
        print(f"\n# table-construction timings written to {out}")


def _identical(a, b) -> bool:
    """Bit-identical cost tables (exact equality, not allclose)."""
    return (set(a.lc) == set(b.lc)
            and set(a.pair_tx) == set(b.pair_tx)
            and all(np.array_equal(a.lc[n], b.lc[n]) for n in a.lc)
            and all(np.array_equal(a.pair_tx[k], b.pair_tx[k])
                    for k in a.pair_tx))


def _interleaved(run_a, run_b, reps):
    """Best-of-``reps`` for both runners, alternated so drift hits both."""
    t_a = t_b = float("inf")
    best_a = best_b = None
    for _ in range(reps):
        t0 = time.perf_counter()
        res = run_a()
        dt = time.perf_counter() - t0
        if dt < t_a:
            t_a, best_a = dt, res
        t0 = time.perf_counter()
        res = run_b()
        dt = time.perf_counter() - t0
        if dt < t_b:
            t_b, best_b = dt, res
    return t_a, best_a, t_b, best_b


@pytest.mark.parametrize("net", NETWORKS)
def test_build_perf_guard_and_identity(net, tmp_path, monkeypatch):
    graph = BENCHMARKS[net]()
    space = ConfigSpace.build(graph, P, mode="pow2")
    cm = CostModel(GTX1080TI)
    cache = TableCache(tmp_path / "cache")

    def run_serial():
        return cm.build_tables(graph, space)

    def run_auto():
        return cm.build_tables(graph, space, ctx=RunContext(jobs=JOBS))

    # Warm pass: pages in the model code and gives first-shot timings.
    t0 = time.perf_counter()
    serial = run_serial()
    t_serial = time.perf_counter() - t0
    t0 = time.perf_counter()
    par = run_auto()
    t_par = time.perf_counter() - t0
    backend = par.backend
    assert _identical(serial, par), \
        f"{net}: {backend} tables differ from serial"

    rounds_used = 0
    for attempt in range(ROUNDS):
        rounds_used = attempt + 1
        ts, _, tp, p_res = _interleaved(run_serial, run_auto, BEST_OF)
        if ts < t_serial:
            t_serial = ts
        if tp < t_par:
            t_par, par = tp, p_res
        if _guard_ok(t_par, t_serial):
            break

    # Forced thread build: identity only, so the pool path is exercised
    # even where auto-selection stays serial (a single-core box).
    t0 = time.perf_counter()
    forced = cm.build_tables(graph, space,
                             ctx=RunContext(jobs="threads:2"))
    t_forced = time.perf_counter() - t0
    assert forced.backend == "threads"
    assert _identical(serial, forced), \
        f"{net}: thread-pool tables differ from serial"

    cached = RunContext(cache=cache)
    t0 = time.perf_counter()
    cold = cm.build_tables(graph, space, ctx=cached)
    t_cold = time.perf_counter() - t0
    assert cold.build_stats["cache_hit"] == 0.0

    # A warm hit must come entirely off disk: fail the moment either
    # matrix constructor runs.
    def _boom(*args, **kwargs):
        raise AssertionError("matrix construction ran on a warm cache hit")

    monkeypatch.setattr(CostModel, "layer_cost", _boom)
    monkeypatch.setattr(CostModel, "edge_bytes_matrix", _boom)
    t0 = time.perf_counter()
    warm = cm.build_tables(graph, space, ctx=cached)
    t_warm = time.perf_counter() - t0
    monkeypatch.undo()
    assert warm.build_stats["cache_hit"] == 1.0
    assert _identical(serial, warm), "cached tables differ from serial"

    _RESULTS[net] = {
        "p": float(P),
        "work_cells": float(CostModel.table_work_cells(graph, space)),
        "serial_seconds": t_serial,
        "parallel_seconds": t_par,
        "parallel_jobs": par.build_stats["jobs"],
        "backend": backend,
        "forced_threads_seconds": t_forced,
        "cold_cache_seconds": t_cold,
        "warm_cache_seconds": t_warm,
        "rounds_used": float(rounds_used),
    }

    # The perf guard: auto-selection must never cost wall clock.  When a
    # parallel backend was chosen it has to tie-or-beat serial; when auto
    # resolved to serial the two runs differ only by resolution overhead
    # and the same tolerance applies.
    assert _guard_ok(t_par, t_serial), \
        (f"{net} p={P}: auto-selected backend {backend!r} {t_par:.4f}s "
         f"not within {TOLERANCE:.2f}x (+{SLACK_SECONDS}s) of serial "
         f"{t_serial:.4f}s")
