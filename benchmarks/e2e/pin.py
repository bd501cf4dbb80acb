"""Regenerate ``expected.json``, the benchmark's correctness oracle.

    PYTHONPATH=src python3 benchmarks/e2e/pin.py

Pins, as exact floats, the optimal cost of every scalar problem and the
min-cost point and point count of every frontier problem the workloads
check, as the code at hand computes them.  The pins only move when an
answer changes, so review a diff of the file like a change to the code.
"""

import json

from repro import api

from common import EXPECTED
from workloads import FRONTIER, frontier_key, required_keys


def main() -> None:
    scalar_keys, _ = required_keys()
    scalar = {}
    for key in sorted(scalar_keys):
        model, p, mode = key.split("/")
        problem = api.Problem.from_benchmark(model, int(p))
        scalar[key] = api.search(problem, reduce=mode == "auto").result.cost
    frontier = {}
    for model, p, objective in FRONTIER:
        problem = api.Problem.from_benchmark(model, p)
        points = api.search(problem, objective=objective).result.frontier
        frontier[frontier_key(model, p, objective)] = {
            "cost": min(pt.cost for pt in points), "points": len(points)}
    EXPECTED.write_text(json.dumps({"scalar": scalar, "frontier": frontier},
                                   indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
