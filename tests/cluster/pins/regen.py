"""Regenerate the simulator pins ``simulator.json`` and ``faults.json``.

    PYTHONPATH=src python3 tests/cluster/pins/regen.py

Searches the DP strategy of every pinned (model, p, machine) with
``api.search(reduce=True)``, stores it, and pins what the simulator at
hand reports for every case of ``tests/cluster/test_simulator_pin.py``.
The pins only move when a simulated number changes, so review a diff of
either file like a change to the simulator.  About a minute.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[3]
sys.path.insert(0, str(ROOT))

from repro import api  # noqa: E402
from repro.cluster import simulate_step  # noqa: E402
from tests.cluster.test_simulator_pin import (  # noqa: E402
    CASES, FAULT_CASES, FAULT_PLAN, MACHINES, PINS, case_key, faulted_pin,
    healthy_pin, make_strategy, strategy_key)


def dump(name: str, doc: dict, depth: int) -> None:
    """Write ``doc`` with one line per entry ``depth`` levels down, so a
    moved number shows as one changed case in a diff."""
    def block(d: dict, level: int) -> str:
        if level == depth:
            return json.dumps(d, sort_keys=True)
        pad = " " * (level + 1)
        return "{\n" + ",\n".join(
            f"{pad}{json.dumps(k)}: {block(v, level + 1)}"
            for k, v in sorted(d.items())) + "\n" + " " * level + "}"
    (PINS / name).write_text(block(doc, 0) + "\n")


def main() -> None:
    strategies: dict[str, dict] = {}
    graphs: dict[str, object] = {}
    for model, p, machine, strategy in CASES:
        key = strategy_key(model, p, machine)
        if strategy != "dp" or key in strategies:
            continue
        problem = api.Problem.from_benchmark(model, p,
                                             machine=MACHINES[machine])
        graphs.setdefault(model, problem.graph)
        result = api.search(problem, reduce=True).result
        strategies[key] = {n: list(c) for n, c in
                           sorted(result.strategy.assignment.items())}

    cases = {}
    for model, p, machine, strategy in CASES:
        graph = graphs[model]
        strat = make_strategy(graph, model, p, machine, strategy, strategies)
        report = simulate_step(graph, strat, MACHINES[machine], p)
        traced = simulate_step(graph, strat, MACHINES[machine], p,
                               keep_trace=True)
        cases[case_key(model, p, machine, strategy)] = healthy_pin(report,
                                                                   traced)
    dump("simulator.json", {"strategies": strategies, "cases": cases}, 2)

    faults = {}
    for model, p, machine in FAULT_CASES:
        graph = graphs[model]
        strat = make_strategy(graph, model, p, machine, "dp", strategies)
        faults[strategy_key(model, p, machine)] = faulted_pin(simulate_step(
            graph, strat, MACHINES[machine], p, faults=FAULT_PLAN))
    dump("faults.json", faults, 1)


if __name__ == "__main__":
    main()
