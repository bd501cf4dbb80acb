"""End-to-end integration: build -> search -> place -> simulate.

Exercises the full public pipeline on every benchmark at small scale and
checks the paper's headline orderings hold under both the analytic oracle
and the cluster simulator.
"""

import importlib
import pkgutil

import pytest

import repro
from repro.baselines import auto_expert_strategy, data_parallel_strategy
from repro.cluster import simulate_step
from repro.core import ConfigSpace, CostModel, GTX1080TI, RTX2080TI
from repro.models import BENCHMARKS, mlp


class TestPublicAPI:
    def test_version(self):
        assert repro.__version__

    def test_exports(self):
        """Every ``__all__`` name of ``repro`` and of each of its
        submodules resolves, so ``import *`` never meets a stale one."""
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None
        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            module = importlib.import_module(info.name)
            for name in getattr(module, "__all__", ()):
                assert hasattr(module, name), f"{info.name}.{name}"


@pytest.mark.parametrize("bench", sorted(BENCHMARKS))
def test_full_pipeline(bench):
    graph = BENCHMARKS[bench]()
    p = 4
    space = ConfigSpace.build(graph, p)
    tables = CostModel(GTX1080TI).build_tables(graph, space)

    ours = repro.find_best_strategy(graph, space, tables)
    dp = data_parallel_strategy(graph, p)
    expert = auto_expert_strategy(graph, p)

    # Analytic ordering (the DP is exact over the shared oracle).
    assert ours.cost <= dp.cost(tables) + 1e-6
    assert ours.cost <= expert.cost(tables) + 1e-6

    # The strategies all execute on the simulator.
    for strat in (ours.strategy, dp, expert):
        rep = simulate_step(graph, strat, GTX1080TI, p)
        assert rep.step_time > 0 and rep.throughput > 0


def test_low_balance_machine_rewards_search_more():
    """Fig. 6's premise: the gap between the found strategy and data
    parallelism widens on the low machine-balance (2080Ti) system."""
    graph = BENCHMARKS["alexnet"]()
    p = 8
    gaps = {}
    for machine in (GTX1080TI, RTX2080TI):
        space = ConfigSpace.build(graph, p)
        tables = CostModel(machine).build_tables(graph, space)
        ours = repro.find_best_strategy(graph, space, tables)
        dp = data_parallel_strategy(graph, p)
        rep_ours = simulate_step(graph, ours.strategy, machine, p)
        rep_dp = simulate_step(graph, dp, machine, p)
        gaps[machine.name] = rep_ours.throughput / rep_dp.throughput
    assert gaps["2080Ti"] > gaps["1080Ti"]


def test_quickstart_flow():
    """The README quickstart, as a test."""
    graph = mlp(batch=64, in_dim=784, hidden=(1024, 1024), classes=10)
    space = ConfigSpace.build(graph, 8)
    tables = CostModel(GTX1080TI).build_tables(graph, space)
    result = repro.find_best_strategy(graph, space, tables)
    table = result.strategy.format_table(graph)
    assert "fc1" in table
    report = simulate_step(graph, result.strategy, GTX1080TI, 8)
    assert report.throughput > 0
