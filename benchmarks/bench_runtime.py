"""Hardened-runtime overhead: plain search vs journalled + checkpointed.

Times `find_best_strategy` over raw tables against the same problem run
through `repro.runtime.execute_search` with a `RunBudget`, cooperative
checkpoints, and a crash-safe `SearchJournal`, asserting the hardened
path returns the bit-identical cost and strategy.  The journal/checkpoint
overhead lands in ``BENCH_runtime.json`` (override the path with
``PASE_BENCH_OUT``); the design target is < 2% of end-to-end runtime,
recorded rather than hard-asserted — wall-clock ratios flake on loaded
CI machines, correctness never may.

Needs no pytest-benchmark plugin, so CI can smoke it with the base test
toolchain:

    PYTHONPATH=src python -m pytest benchmarks/bench_runtime.py
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
from repro.runtime import RunBudget, RunContext, SearchJournal, execute_search
from _config import FULL

NETWORKS = ("rnnlm", "transformer")
P = 32 if FULL else 16

_RESULTS: dict[str, dict[str, float]] = {}


@pytest.fixture(scope="module", autouse=True)
def _write_results():
    yield
    if _RESULTS:
        out = os.environ.get("PASE_BENCH_OUT", "BENCH_runtime.json")
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(_RESULTS, fh, indent=2, sort_keys=True)
        print(f"\n# hardened-runtime overhead written to {out}")


@pytest.mark.parametrize("net", NETWORKS)
def test_hardened_overhead(net, tmp_path):
    graph = BENCHMARKS[net]()
    space = ConfigSpace.build(graph, P, mode="pow2")
    cm = CostModel(GTX1080TI)

    # Plain path: tables + DP with no budget, checkpoints, or journal.
    t0 = time.perf_counter()
    tables = cm.build_tables(graph, space)
    plain = find_best_strategy(graph, space, tables)
    t_plain = time.perf_counter() - t0

    # Hardened path: deadline-bounded, checkpointed, journalled.
    t0 = time.perf_counter()
    out = execute_search(graph, space, GTX1080TI,
                         ctx=RunContext(
                             budget=RunBudget(deadline=3600.0),
                             journal=SearchJournal(tmp_path / "journal")))
    t_hard = time.perf_counter() - t0

    assert out.result.cost == plain.cost, \
        "hardened runtime changed the optimal cost"
    assert out.result.strategy.assignment == plain.strategy.assignment, \
        "hardened runtime changed the optimal strategy"
    assert out.report.clean

    # Resume replay: everything comes back from the journal.
    t0 = time.perf_counter()
    replay = execute_search(
        graph, space, GTX1080TI,
        ctx=RunContext(journal=SearchJournal(tmp_path / "journal")),
        resume=True)
    t_replay = time.perf_counter() - t0
    assert replay.result.cost == plain.cost

    _RESULTS[net] = {
        "p": float(P),
        "plain_seconds": t_plain,
        "hardened_seconds": t_hard,
        "replay_seconds": t_replay,
        "overhead_seconds": t_hard - t_plain,
        "overhead_ratio": (t_hard - t_plain) / t_plain if t_plain else 0.0,
        "overhead_target_ratio": 0.02,
    }
