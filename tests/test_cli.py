"""Tests for the ``pase`` command-line interface."""

import json

import pytest

from repro.cli import main


class TestCLI:
    def test_search(self, capsys):
        assert main(["search", "--model", "rnnlm", "--p", "4"]) == 0
        out = capsys.readouterr().out
        assert "lstm" in out and "cost=" in out

    def test_search_json_output(self, tmp_path, capsys):
        path = tmp_path / "strategy.json"
        assert main(["search", "--model", "rnnlm", "--p", "4",
                     "--json", str(path)]) == 0
        data = json.loads(path.read_text())
        assert "lstm" in data and len(data["lstm"]) == 5

    def test_search_methods(self, capsys):
        for method in ("data_parallel", "expert"):
            assert main(["search", "--model", "rnnlm", "--p", "4",
                         "--method", method]) == 0

    def test_simulate(self, capsys):
        assert main(["simulate", "--model", "rnnlm", "--p", "4",
                     "--methods", "data_parallel", "ours"]) == 0
        out = capsys.readouterr().out
        assert "samples/s" in out and "x vs dp" in out

    def test_simulate_2080ti(self, capsys):
        assert main(["simulate", "--model", "rnnlm", "--p", "4",
                     "--machine", "2080ti",
                     "--methods", "data_parallel", "ours"]) == 0

    def test_stats(self, capsys):
        assert main(["stats", "--model", "alexnet", "--p", "4"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["nodes"] == 21

    def test_unknown_model_rejected(self):
        with pytest.raises(SystemExit):
            main(["search", "--model", "lenet", "--p", "4"])

    def test_sweep_with_malformed_spec_exits_2(self, tmp_path, capsys):
        spec = tmp_path / "sweep.json"
        spec.write_text(json.dumps({"models": ["alexnet"], "ps": ["x"]}))
        assert main(["sweep", "--spec", str(spec),
                     "--fleet-dir", str(tmp_path / "fleet")]) == 2
        err = capsys.readouterr().err
        assert "bad sweep spec" in err and "p: expected int" in err

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    @pytest.mark.parametrize("argv", [
        ["search", "--model", "rnnlm", "--p", "4"],
        ["simulate", "--model", "rnnlm", "--p", "4"],
        ["table1", "--benchmarks", "rnnlm"],
        ["table2", "--benchmarks", "rnnlm"],
        ["figure6", "--benchmarks", "rnnlm"],
    ])
    @pytest.mark.parametrize("jobs", ["-1", "processes:2"])
    def test_bad_jobs_is_usage_error(self, argv, jobs, capsys):
        """Every ``--jobs`` goes through the same validation: a usage
        error (exit 2), never a traceback once tables are built."""
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--jobs", jobs])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    def test_mcmc_sensitivity_rejects_bad_jobs(self, capsys):
        from repro.experiments import mcmc_sensitivity

        with pytest.raises(SystemExit) as exc:
            mcmc_sensitivity.main(["--jobs", "-1"])
        assert exc.value.code == 2


class TestCLIExtensions:
    def test_export(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        assert main(["export", "--model", "rnnlm", "--p", "4",
                     "--out", str(path)]) == 0
        import json as _json
        spec = _json.loads(path.read_text())
        assert "lstm" in spec and spec["lstm"]["devices"] >= 1

    def test_export_stdout(self, capsys):
        assert main(["export", "--model", "rnnlm", "--p", "4",
                     "--method", "data_parallel"]) == 0
        out = capsys.readouterr().out
        assert '"iteration_splits"' in out

    def test_pipeline(self, capsys):
        assert main(["pipeline", "--model", "alexnet", "--p", "4",
                     "--stages", "2"]) == 0
        out = capsys.readouterr().out
        assert "stage 0" in out and "bottleneck" in out

    def test_simulate_gantt(self, capsys):
        assert main(["simulate", "--model", "rnnlm", "--p", "4",
                     "--methods", "ours", "--gantt"]) == 0
        out = capsys.readouterr().out
        assert "timeline" in out and "gpu0" in out


class TestCLIFrontier:
    def test_search_frontier_prints_table(self, capsys):
        assert main(["search", "--model", "rnnlm", "--p", "4",
                     "--frontier"]) == 0
        out = capsys.readouterr().out
        assert "Pareto frontier" in out
        assert "min-cost" in out and "peak memory" in out

    def test_search_frontier_eps(self, capsys):
        assert main(["search", "--model", "rnnlm", "--p", "4",
                     "--frontier", "--frontier-eps", "0.5"]) == 0
        assert "Pareto frontier" in capsys.readouterr().out

    def test_frontier_requires_ours(self, capsys):
        assert main(["search", "--model", "rnnlm", "--p", "4",
                     "--frontier", "--method", "data_parallel"]) == 2
        assert "requires --method ours" in capsys.readouterr().err


class TestCLIResilience:
    def _plan(self, tmp_path, **kw):
        plan = {"relative_times": True,
                "device_failures": [
                    {"device": 1, "time": 0.5, "downtime": 0.5}],
                "stragglers": [{"device": 2, "slowdown": 2.0}]}
        plan.update(kw)
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan))
        return str(path)

    def test_search_resilient_flag(self, capsys):
        assert main(["search", "--model", "rnnlm", "--p", "4",
                     "--resilient"]) == 0
        out = capsys.readouterr().out
        assert "cost=" in out and "degradation" in out

    def test_search_resilient_tight_budget_degrades(self, capsys):
        assert main(["search", "--model", "rnnlm", "--p", "4",
                     "--resilient", "--memory-budget", "20000"]) == 0
        out = capsys.readouterr().out
        assert "completed after" in out and "retries" in out

    def test_search_budget_without_resilient_exits_3(self, capsys):
        assert main(["search", "--model", "rnnlm", "--p", "4",
                     "--memory-budget", "64"]) == 3
        err = capsys.readouterr().err
        assert "budget_bytes=64" in err
        assert "exit code 3" in err

    def test_simulate_with_faults(self, tmp_path, capsys):
        assert main(["simulate", "--model", "rnnlm", "--p", "4",
                     "--methods", "ours",
                     "--faults", self._plan(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "fault-injected" in out and "slowdown" in out

    def test_simulate_faults_with_replan_and_ckpt(self, tmp_path, capsys):
        assert main(["simulate", "--model", "rnnlm", "--p", "4",
                     "--methods", "ours",
                     "--faults", self._plan(tmp_path),
                     "--replan", "--ckpt-interval", "100"]) == 0
        out = capsys.readouterr().out
        assert "effective step time" in out
        assert "elastic re-plan" in out and "break-even" in out

    def test_simulate_bad_plan_exits_4(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["simulate", "--model", "rnnlm", "--p", "4",
                     "--methods", "ours", "--faults", str(bad)]) == 4
        assert "not valid JSON" in capsys.readouterr().err


class TestCLIExperimentCommands:
    def test_table1_subcommand(self, capsys):
        assert main(["table1", "--benchmarks", "rnnlm"]) == 0
        out = capsys.readouterr().out
        assert "rnnlm/Ours" in out and "rnnlm/BF" in out

    def test_figure6_subcommand(self, capsys):
        assert main(["figure6", "--benchmarks", "rnnlm"]) == 0
        out = capsys.readouterr().out
        assert "Figure 6a" in out and "Figure 6b" in out


class TestCLIHardenedRuntime:
    """Documented exit codes and journal/resume behavior of `search`."""

    ARGS = ["search", "--model", "rnnlm", "--p", "4"]

    def test_clean_run_reports_zero_degradations(self, capsys):
        assert main(self.ARGS) == 0
        assert "zero degradations" in capsys.readouterr().out

    def test_deadline_zero_exits_5(self, capsys):
        assert main(self.ARGS + ["--deadline", "0"]) == 5
        err = capsys.readouterr().err
        assert "deadline exceeded" in err
        assert "exit code 5" in err

    def test_generous_deadline_exits_0(self, capsys):
        assert main(self.ARGS + ["--deadline", "3600"]) == 0

    def test_resume_without_journal_exits_2(self, capsys):
        assert main(self.ARGS + ["--resume"]) == 2
        assert "--journal-dir" in capsys.readouterr().err

    def test_resume_with_empty_journal_dir_exits_2(self, tmp_path, capsys):
        assert main(self.ARGS + ["--journal-dir", str(tmp_path / "j"),
                                 "--resume"]) == 2
        assert "no journal" in capsys.readouterr().err

    def test_journalled_run_then_resume_is_identical(self, tmp_path, capsys):
        import re

        jdir = str(tmp_path / "journal")
        assert main(self.ARGS + ["--journal-dir", jdir]) == 0
        first = capsys.readouterr().out
        assert main(self.ARGS + ["--journal-dir", jdir, "--resume"]) == 0
        second = capsys.readouterr().out
        cost = re.compile(r"# cost=(\S+)")
        assert cost.search(first).group(1) == cost.search(second).group(1)
        assert "resumed from journal" in second

    def test_resume_fingerprint_mismatch_exits_2(self, tmp_path, capsys):
        jdir = str(tmp_path / "journal")
        assert main(self.ARGS + ["--journal-dir", jdir]) == 0
        capsys.readouterr()
        assert main(["search", "--model", "rnnlm", "--p", "8",
                     "--journal-dir", jdir, "--resume"]) == 2
        assert "different problem" in capsys.readouterr().err

    def test_exit_codes_documented_in_help(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        out = capsys.readouterr().out
        for code in range(7):
            assert f"  {code}  " in out
