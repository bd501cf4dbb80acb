"""Smoke tests for the experiment harness (CI-sized parameters)."""

import pytest

from repro.core.machine import GTX1080TI, UNIT_BALANCE, from_heterogeneous
from repro.experiments import (
    build_setup,
    run_config_mode_ablation,
    run_costterm_ablation,
    run_figure6,
    run_ordering_ablation,
    run_table1,
    run_table2,
    search_with,
)
from repro.experiments.table1 import format_table1
from repro.models import mlp


class TestCommon:
    def test_build_setup_cached(self):
        a = build_setup("alexnet", 4)
        b = build_setup("alexnet", 4)
        assert a is b

    def test_build_setup_prices_the_given_machine(self):
        hetero = from_heterogeneous("mixed", [10e12, 12e12], [8e9],
                                    [5e9, 9e9])
        for machine in (UNIT_BALANCE, hetero, GTX1080TI):
            setup = build_setup("alexnet", 4, machine=machine)
            assert setup.machine == machine
            assert setup.tables.machine == machine

    def test_search_with_all_methods(self):
        setup = build_setup("rnnlm", 4)
        for method in ("ours", "bf", "data_parallel", "expert", "random"):
            res = search_with(setup, method)
            res.strategy.validate(setup.graph, 4)
            assert res.cost > 0

    def test_unknown_method(self):
        setup = build_setup("rnnlm", 4)
        with pytest.raises(ValueError):
            search_with(setup, "oracle")

    def test_ours_never_worse_than_baselines(self):
        for bench in ("alexnet", "rnnlm"):
            setup = build_setup(bench, 8)
            ours = search_with(setup, "ours").cost
            for method in ("data_parallel", "expert", "random"):
                assert ours <= search_with(setup, method).cost + 1e-6


class TestTable1:
    def test_small_sweep(self):
        cells = run_table1(benchmarks=("alexnet",), ps=(4,),
                           methods=("bf", "ours"))
        assert len(cells) == 2
        assert all(not c.oom for c in cells)
        text = format_table1(cells)
        assert "alexnet/BF" in text and "alexnet/Ours" in text

    def test_oom_rendering(self):
        from repro.experiments.table1 import Table1Cell
        text = format_table1([Table1Cell("x", 4, "bf", None, None)])
        assert "OOM" in text


class TestTable2:
    def test_structure_at_p8(self):
        from repro.experiments.table2 import strategy_structure_checks
        strategies = run_table2(p=8, benchmarks=("alexnet", "rnnlm"))
        checks = strategy_structure_checks(strategies, p=8)
        assert checks["alexnet_fc_param_parallel"]
        assert checks["rnnlm_projection_vocab_split"]


class TestFigure6:
    def test_single_point(self):
        pts = run_figure6(benchmarks=("rnnlm",), ps=(4,),
                          machines=(GTX1080TI,), methods=("ours",))
        assert len(pts) == 2  # data_parallel baseline + ours
        ours = [p for p in pts if p.method == "ours"][0]
        assert ours.speedup_over_dp > 0


class TestAblations:
    @pytest.fixture(scope="class")
    def graph(self):
        return mlp(batch=32, hidden=(64, 64), classes=32)

    def test_ordering_ablation_same_cost(self, graph):
        out = run_ordering_ablation(graph, 4)
        costs = {v["cost"] for v in out.values() if not v["oom"]}
        assert len(costs) == 1  # Theorem 1: any ordering, same optimum

    def test_config_mode_ablation_monotone(self, graph):
        out = run_config_mode_ablation(graph, 4)
        # Richer spaces can only improve (or tie) the optimum.
        assert out["all"]["cost"] <= out["pow2"]["cost"] + 1e-9
        assert out["all"]["k_max"] >= out["pow2"]["k_max"]

    def test_costterm_ablation(self, graph):
        out = run_costterm_ablation(graph, 8)
        # Ablated searches can only look cheaper under their own oracle...
        assert out["no_grad_sync"]["ablated_cost"] <= out["full"]["ablated_cost"] + 1e-9
        # ...but never beat the full search under the full oracle.
        assert out["no_grad_sync"]["true_cost"] >= out["full"]["true_cost"] - 1e-9


class TestFigure6Formatting:
    def test_as_table(self):
        from repro.experiments.figure6 import Figure6Point, as_table
        pts = [
            Figure6Point("1080Ti", "alexnet", 4, "data_parallel", 100.0, 1.0),
            Figure6Point("1080Ti", "alexnet", 4, "ours", 150.0, 1.5),
            Figure6Point("2080Ti", "alexnet", 4, "ours", 90.0, 2.0),
        ]
        text = as_table(pts, "1080Ti")
        assert "1.50x" in text and "2.00x" not in text


class TestMCMCSensitivity:
    def test_expert_init_beats_serial_init(self):
        """The paper's FlexFlow critique, quantified: meta-heuristic
        quality depends on the initial candidate, and no init reaches
        the DP optimum on the Transformer graph."""
        from repro.experiments import run_mcmc_sensitivity
        rows = run_mcmc_sensitivity(benchmark="transformer", p=4,
                                    seeds=(0,), max_iters=5_000)
        by_init = {r.init: r for r in rows}
        assert by_init["expert"].cost <= by_init["serial"].cost
        assert all(r.gap_vs_dp_optimum >= -1e-9 for r in rows)

    def test_formatting(self):
        from repro.experiments.mcmc_sensitivity import (
            SensitivityRow, format_sensitivity)
        text = format_sensitivity([SensitivityRow("x", "serial", 0, 1.0,
                                                  0.5, 100)])
        assert "+50.00%" in text
