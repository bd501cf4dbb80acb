"""Fleet sweep throughput: searches per minute at fleet width.

Drains a grid of journalled alexnet searches through the
`FleetSupervisor` (persistent worker pool) at one and at
``FLEET_WORKERS`` workers, and records searches/minute, scaling
efficiency, worker reuse counts, and per-task seconds in
``BENCH_fleet.json`` (override the path with ``PASE_BENCH_OUT``).

Two classes of assertion:

* **Determinism** — every task must succeed and both widths must merge
  a byte-identical ``results.jsonl``.
* **Throughput guard** — the width-``FLEET_WORKERS`` persistent pool
  must reach at least ``MIN_SPEEDUP``x the width-1 searches/minute on
  the same grid; measured up to ``ROUNDS`` times (fresh fleet dirs)
  before failing so one scheduler hiccup cannot flake CI.

Needs no pytest-benchmark plugin, so CI can smoke it with the base test
toolchain:

    PYTHONPATH=src python -m pytest benchmarks/bench_fleet.py
"""

import json
import os

import pytest

from repro.fleet import FleetSupervisor, SweepSpec
from _config import FULL

#: Fleet width for the parallel measurement (the ISSUE floor is 4).
FLEET_WORKERS = 8 if FULL else 4

#: Grid size: models x ps x seeds.
N_SEEDS = 16 if FULL else 6

#: The wide persistent fleet must beat width-1 by at least this factor.
MIN_SPEEDUP = 2.5

#: Fresh measurement rounds before the speedup assert fails.
ROUNDS = 3

_RESULTS: dict[str, dict[str, float]] = {}


@pytest.fixture(scope="module", autouse=True)
def _write_results():
    yield
    if _RESULTS:
        out = os.environ.get("PASE_BENCH_OUT", "BENCH_fleet.json")
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(_RESULTS, fh, indent=2, sort_keys=True)
        print(f"\n# fleet sweep throughput written to {out}")


def _spec():
    return SweepSpec.from_dict({
        "models": ["alexnet"],
        "ps": [2, 4, 8],
        "methods": ["ours"],
        "seeds": list(range(N_SEEDS)),
    })


def _sweep(fleet_dir, workers):
    report = FleetSupervisor(
        _spec(), fleet_dir, workers=workers, backoff_base=0.01).run()
    assert report.clean, "benchmark sweep must not degrade"
    return report


def _record(label, rep):
    _RESULTS[label] = {
        "tasks": rep.tasks_total,
        "workers": rep.workers,
        "wall_seconds": round(rep.wall_seconds, 4),
        "searches_per_minute": round(rep.searches_per_minute, 2),
        "seconds_per_task": round(
            rep.wall_seconds / max(rep.tasks_total, 1), 5),
        "workers_spawned": rep.workers_spawned,
        "workers_reused": rep.workers_reused,
    }


def test_fleet_throughput(tmp_path):
    serial = _sweep(tmp_path / "w1", workers=1)
    fleet = _sweep(tmp_path / "wN", workers=FLEET_WORKERS)
    rounds_used = 1
    for attempt in range(1, ROUNDS):
        if fleet.searches_per_minute >= \
                MIN_SPEEDUP * serial.searches_per_minute:
            break
        rounds_used = attempt + 1
        rerun = _sweep(tmp_path / f"w1-r{attempt}", workers=1)
        if rerun.searches_per_minute > serial.searches_per_minute:
            serial = rerun
        rerun = _sweep(tmp_path / f"wN-r{attempt}", workers=FLEET_WORKERS)
        if rerun.searches_per_minute > fleet.searches_per_minute:
            fleet = rerun

    # Different widths, same answers, byte for byte.
    w1 = (tmp_path / "w1" / "results.jsonl").read_bytes()
    assert w1 == (tmp_path / "wN" / "results.jsonl").read_bytes()

    # The pool must actually reuse processes across the grid.
    assert fleet.workers_reused > 0, "persistent pool never reused a worker"
    assert serial.workers_spawned <= 2

    _record("workers_1", serial)
    _record(f"workers_{FLEET_WORKERS}", fleet)
    speedup = (fleet.searches_per_minute /
               max(serial.searches_per_minute, 1e-9))
    _RESULTS["scaling"] = {
        "width": FLEET_WORKERS,
        "speedup": round(speedup, 3),
        "min_speedup": MIN_SPEEDUP,
        "rounds_used": float(rounds_used),
    }

    assert speedup >= MIN_SPEEDUP, \
        (f"width-{FLEET_WORKERS} persistent pool reached only "
         f"{speedup:.2f}x width-1 ({fleet.searches_per_minute:.1f} vs "
         f"{serial.searches_per_minute:.1f} searches/min); "
         f"floor is {MIN_SPEEDUP}x")
