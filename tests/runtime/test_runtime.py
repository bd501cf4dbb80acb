"""End-to-end tests for the hardened runtime (`execute_search`)."""

import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.configs import ConfigSpace
from repro.core.exceptions import (
    DeadlineExceededError,
    JournalError,
    RunInterrupted,
    SearchResourceError,
)
from repro.core.machine import GTX1080TI
from repro.runtime import (
    Cancellation,
    EXIT_DEADLINE,
    EXIT_INTERRUPTED,
    EXIT_OK,
    EXIT_RESOURCE,
    RunBudget,
    RunContext,
    SearchJournal,
    execute_search,
    run_fingerprint,
)
from tests.conftest import build_dag, small_dags


def make_problem(p: int = 4):
    graph = build_dag(4, [(0, 2), (1, 3)], param_mask=0b1010,
                      reduction_mask=0b0100)
    return graph, ConfigSpace.build(graph, p)


def journal_ctx(path) -> RunContext:
    """A run context journalling under ``path``."""
    return RunContext(journal=SearchJournal(path))


class TripAfter(Cancellation):
    """Cancellation that self-arms after ``n`` checkpoint polls — a
    deterministic stand-in for a SIGINT landing mid-run."""

    def __init__(self, n: int) -> None:
        super().__init__()
        self.n = n
        self.calls = 0

    def check(self, where: str = "") -> None:
        self.calls += 1
        if self.calls > self.n:
            self.set("SIGINT")
        super().check(where)


class TestCleanRun:
    def test_reports_zero_degradations(self):
        graph, space = make_problem()
        out = execute_search(graph, space, GTX1080TI)
        assert out.report.outcome == "ok"
        assert out.report.clean
        assert out.report.exit_code == EXIT_OK
        assert [ph.name for ph in out.report.phases] == ["tables", "search"]
        assert out.report.best_cost == out.result.cost
        assert "zero degradations" in out.report.summary()

    def test_matches_unhardened_search(self):
        from repro.core.costmodel import CostModel
        from repro.core.dp import find_best_strategy

        graph, space = make_problem()
        tables = CostModel(GTX1080TI).build_tables(graph, space)
        plain = find_best_strategy(graph, space, tables)
        hardened = execute_search(graph, space, GTX1080TI).result
        assert hardened.cost == plain.cost
        assert hardened.strategy.assignment == plain.strategy.assignment

    def test_baseline_method_dispatch(self):
        graph, space = make_problem()
        out = execute_search(graph, space, GTX1080TI, method="data_parallel")
        assert out.result.method == "data_parallel"
        assert out.result.stats["table_build_seconds"] >= 0.0

    def test_reduce_flag_threads_through(self):
        graph, space = make_problem()
        plain = execute_search(graph, space, GTX1080TI).result
        # reduce="always" forces the reduction; plain reduce=True (auto)
        # bypasses it on a problem this small.
        reduced = execute_search(graph, space, GTX1080TI,
                                 reduce="always").result
        assert reduced.cost == pytest.approx(plain.cost)
        assert "reduction_seconds" in reduced.stats
        auto = execute_search(graph, space, GTX1080TI, reduce=True).result
        assert auto.cost == pytest.approx(plain.cost)
        assert auto.stats["reduction_bypassed"] == 1.0

    def test_requires_machine_or_model(self):
        graph, space = make_problem()
        with pytest.raises(TypeError, match="machine"):
            execute_search(graph, space)


class TestBreadthFirst:
    """``method="bf"`` runs the DP over a breadth-first ordering under
    the run's own budgets and checkpoint."""

    def test_memory_budget_reaches_bf(self):
        from repro.models import BENCHMARKS

        graph = BENCHMARKS["alexnet"]()
        space = ConfigSpace.build(graph, 8)
        assert execute_search(graph, space, GTX1080TI, method="bf"
                              ).result.method == "naive-bf"
        with pytest.raises(SearchResourceError) as exc:
            execute_search(graph, space, GTX1080TI, method="bf",
                           ctx=RunContext(budget=RunBudget(memory_budget=1000)))
        assert exc.value.budget_bytes == 1000

    def test_checkpoint_polls_and_aborts_bf(self):
        graph, space = make_problem()
        phases = []

        def ckpt(*, phase="", step=None, total=None):
            phases.append(phase)
            if phase == "dp":
                raise RunInterrupted("stop", signal_name="SIGINT")

        with pytest.raises(RunInterrupted) as exc:
            execute_search(graph, space, GTX1080TI, method="bf",
                           ctx=RunContext(checkpoint=ckpt))
        assert phases.count("dp") == 1 and phases[-1] == "dp"
        assert exc.value.run_report.outcome == "interrupted"


class TestFailureModes:
    def test_zero_deadline_raises_with_report(self):
        graph, space = make_problem()
        with pytest.raises(DeadlineExceededError) as exc:
            execute_search(graph, space, GTX1080TI,
                           ctx=RunContext(budget=RunBudget(deadline=0.0)))
        report = exc.value.run_report
        assert report.outcome == "deadline"
        assert report.exit_code == EXIT_DEADLINE
        assert "DEADLINE" in report.summary()

    def test_tiny_memory_budget_raises_with_report(self):
        graph, space = make_problem()
        with pytest.raises(SearchResourceError) as exc:
            execute_search(graph, space, GTX1080TI,
                           ctx=RunContext(budget=RunBudget(memory_budget=64)))
        assert exc.value.run_report.outcome == "resource-error"
        assert exc.value.run_report.exit_code == EXIT_RESOURCE

    def test_resilient_survives_tiny_memory_budget(self):
        graph, space = make_problem()
        out = execute_search(
            graph, space, GTX1080TI, resilient=True,
            ctx=RunContext(budget=RunBudget(memory_budget=4096)))
        assert out.resilience is not None
        if out.resilience.retries:
            assert out.report.degradations
            assert not out.report.clean

    def test_resilient_forwards_reduce(self):
        """The ladder runs each rung's search with the caller's
        ``reduce``: the result is the reduction's, counters included."""
        graph, space = make_problem()
        out = execute_search(graph, space, GTX1080TI, resilient=True,
                             reduce="always")
        assert out.result.method == "pase-dp-resilient+reduce"
        assert out.result.stats["reduction_bypassed"] == 0.0
        assert "reduction_cells_before" in out.result.stats
        plain = execute_search(graph, space, GTX1080TI)
        assert out.result.cost == pytest.approx(plain.result.cost)

    def test_cancellation_raises_with_report(self):
        graph, space = make_problem()
        with pytest.raises(RunInterrupted) as exc:
            execute_search(graph, space, GTX1080TI,
                           ctx=RunContext(cancellation=TripAfter(0)))
        assert exc.value.run_report.outcome == "interrupted"
        assert exc.value.run_report.exit_code == EXIT_INTERRUPTED

    def test_resume_without_journal_rejected(self):
        graph, space = make_problem()
        with pytest.raises(JournalError, match="journal"):
            execute_search(graph, space, GTX1080TI, resume=True)


class TestJournalledRuns:
    def test_interrupt_then_resume_is_bit_identical(self, tmp_path):
        graph, space = make_problem()
        fresh = execute_search(graph, space, GTX1080TI).result

        journal = SearchJournal(tmp_path / "journal")
        with pytest.raises(RunInterrupted):
            execute_search(graph, space, GTX1080TI,
                           ctx=RunContext(journal=journal,
                                          cancellation=TripAfter(5)))

        resumed = execute_search(graph, space, GTX1080TI,
                                 ctx=journal_ctx(tmp_path / "journal"),
                                 resume=True)
        assert resumed.result.cost == fresh.cost
        assert resumed.result.strategy.assignment == \
            fresh.strategy.assignment
        assert resumed.report.resumed
        assert resumed.report.clean

    def test_resume_after_tables_rebuilds_identically(self, tmp_path):
        """The journal keeps no tables: a resume past the tables phase
        rebuilds them and answers exactly as a fresh run does."""
        graph, space = make_problem()
        fresh = execute_search(graph, space, GTX1080TI).result
        journal = SearchJournal(tmp_path / "journal")
        # Trip late enough that the tables phase completed and journalled.
        n_tasks = len(graph) + len(graph.edges)
        with pytest.raises(RunInterrupted):
            execute_search(graph, space, GTX1080TI,
                           ctx=RunContext(journal=journal,
                                          cancellation=TripAfter(n_tasks + 1)))
        assert journal.phase("tables")["done"]
        assert journal.phase("search") is None
        resumed = execute_search(graph, space, GTX1080TI,
                                 ctx=journal_ctx(tmp_path / "journal"),
                                 resume=True)
        assert resumed.report.resumed
        assert resumed.result.stats["table_cache_hit"] == 0.0
        assert resumed.result.cost == fresh.cost
        assert resumed.result.strategy.assignment == \
            fresh.strategy.assignment
        assert [f.name for f in (tmp_path / "journal").iterdir()] == \
            ["journal.json"]

    def test_finished_journal_replays_without_recompute(self, tmp_path):
        graph, space = make_problem()
        first = execute_search(graph, space, GTX1080TI,
                               ctx=journal_ctx(tmp_path / "journal"))
        replay = execute_search(graph, space, GTX1080TI,
                                ctx=journal_ctx(tmp_path / "journal"),
                                resume=True)
        assert replay.result.cost == first.result.cost
        assert replay.result.strategy.assignment == \
            first.result.strategy.assignment
        assert all(ph.status == "journal" for ph in replay.report.phases)

    def test_resume_different_problem_rejected(self, tmp_path):
        graph, space = make_problem()
        execute_search(graph, space, GTX1080TI,
                       ctx=journal_ctx(tmp_path / "journal"))
        _, other_space = make_problem(p=8)
        with pytest.raises(JournalError, match="different problem"):
            execute_search(graph, other_space, GTX1080TI,
                           ctx=journal_ctx(tmp_path / "journal"),
                           resume=True)

    def test_fingerprint_excludes_perf_knobs(self):
        from repro.core.costmodel import CostModel

        graph, space = make_problem()
        model = CostModel(GTX1080TI)
        base = dict(method="ours", seed=0, reduce=False, resilient=False,
                    memory_budget=1 << 30, order=None)
        assert run_fingerprint(graph, space, model, **base) == \
            run_fingerprint(graph, space, model, **base)
        changed = dict(base, seed=1)
        assert run_fingerprint(graph, space, model, **base) != \
            run_fingerprint(graph, space, model, **changed)


class TestObjectiveThreading:
    """The objective-aware API: scalar runs are byte-for-byte the old
    pipeline (fingerprint v2, no frontier work); frontier runs carry the
    exact Pareto set end to end."""

    def base_kwargs(self):
        return dict(method="ours", seed=0, reduce=False, resilient=False,
                    memory_budget=1 << 30, order=None)

    def test_scalar_fingerprint_is_v2_without_objective_key(self):
        from repro.core.costmodel import CostModel

        graph, space = make_problem()
        model = CostModel(GTX1080TI)
        implicit = run_fingerprint(graph, space, model, **self.base_kwargs())
        explicit = run_fingerprint(graph, space, model, objective="cost",
                                   **self.base_kwargs())
        assert implicit == explicit  # byte-identical dict
        assert implicit["version"] == 2
        assert "objective" not in implicit

    def test_frontier_fingerprint_is_v3(self):
        from repro.core.costmodel import CostModel

        graph, space = make_problem()
        model = CostModel(GTX1080TI)
        v2 = run_fingerprint(graph, space, model, **self.base_kwargs())
        v3 = run_fingerprint(graph, space, model, objective="frontier",
                             **self.base_kwargs())
        assert v3["version"] == 3
        assert v3["objective"] == "frontier"
        # The frontier's table digest covers the memory tables too.
        assert v3["tables_digest"] != v2["tables_digest"]
        eps = run_fingerprint(graph, space, model,
                              objective="frontier:eps=0.5",
                              **self.base_kwargs())
        assert eps["objective"] == "frontier:eps=0.5"
        assert eps != v3

    def test_invalid_objective_rejected_before_any_work(self):
        graph, space = make_problem()
        with pytest.raises(ValueError, match="objective"):
            execute_search(graph, space, GTX1080TI, objective="speed")

    def test_scalar_run_synthesizes_length_one_frontier(self):
        from repro.core.frontier import strategy_peak_bytes

        graph, space = make_problem()
        out = execute_search(graph, space, GTX1080TI)
        assert len(out.result.frontier) == 1
        pt = out.result.frontier[0]
        assert pt.cost == out.result.cost
        assert pt.strategy.assignment == out.result.strategy.assignment
        assert pt.peak_bytes == strategy_peak_bytes(graph, space,
                                                    out.result.strategy)

    def test_frontier_run_end_to_end(self):
        graph, space = make_problem()
        scalar = execute_search(graph, space, GTX1080TI).result
        out = execute_search(graph, space, GTX1080TI, objective="frontier")
        res = out.result
        assert res.method.endswith("+frontier")
        assert res.frontier[0].cost == scalar.cost  # bit-identical
        assert res.cost == scalar.cost
        assert res.stats["frontier_points"] == float(len(res.frontier))
        for a, b in zip(res.frontier, res.frontier[1:]):
            assert a.cost <= b.cost and a.peak_bytes > b.peak_bytes
        # Same report surface as a scalar run.
        assert [ph.name for ph in out.report.phases] == ["tables", "search"]
        assert out.report.clean

    def test_frontier_journal_replay_bit_identical(self, tmp_path):
        graph, space = make_problem()
        first = execute_search(graph, space, GTX1080TI,
                               objective="frontier",
                               ctx=journal_ctx(tmp_path / "j"))
        replay = execute_search(graph, space, GTX1080TI,
                                objective="frontier",
                                ctx=journal_ctx(tmp_path / "j"),
                                resume=True)
        assert all(ph.status == "journal" for ph in replay.report.phases)
        assert len(replay.result.frontier) == len(first.result.frontier)
        for got, want in zip(replay.result.frontier, first.result.frontier):
            assert got.cost == want.cost
            assert got.peak_bytes == want.peak_bytes
            assert got.strategy.assignment == want.strategy.assignment

    def test_scalar_and_frontier_journals_are_distinct_problems(
            self, tmp_path):
        graph, space = make_problem()
        execute_search(graph, space, GTX1080TI,
                       ctx=journal_ctx(tmp_path / "j"))
        with pytest.raises(JournalError, match="different problem"):
            execute_search(graph, space, GTX1080TI, objective="frontier",
                           ctx=journal_ctx(tmp_path / "j"),
                           resume=True)

    def test_frontier_with_reduce_and_resilient(self):
        import math

        graph, space = make_problem()
        plain = execute_search(graph, space, GTX1080TI,
                               objective="frontier").result
        red = execute_search(graph, space, GTX1080TI, objective="frontier",
                             reduce="always").result
        assert len(red.frontier) == len(plain.frontier)
        for a, b in zip(red.frontier, plain.frontier):
            assert math.isclose(a.cost, b.cost, rel_tol=1e-9)
            assert a.peak_bytes == b.peak_bytes
        res = execute_search(graph, space, GTX1080TI, objective="frontier",
                             resilient=True)
        assert res.result.frontier[0].cost == plain.frontier[0].cost


class TestResumeProperty:
    @settings(max_examples=12, deadline=None)
    @given(small_dags(max_nodes=5), st.sampled_from([2, 4]),
           st.integers(min_value=1, max_value=14))
    def test_interrupt_resume_equals_fresh(self, graph, p, trip_at):
        """Interrupt at a random checkpoint, resume, compare to a fresh
        run: bit-identical cost and strategy, regardless of where the
        interrupt landed."""
        space = ConfigSpace.build(graph, p)
        fresh = execute_search(graph, space, GTX1080TI).result
        with tempfile.TemporaryDirectory() as tmp:
            try:
                out = execute_search(
                    graph, space, GTX1080TI,
                    ctx=RunContext(journal=SearchJournal(tmp),
                                   cancellation=TripAfter(trip_at)))
                # Run finished before the trip point: nothing to resume,
                # but the journalled result must already match.
                assert out.result.cost == fresh.cost
                return
            except RunInterrupted:
                pass
            resumed = execute_search(graph, space, GTX1080TI,
                                     ctx=journal_ctx(tmp), resume=True)
            assert resumed.result.cost == fresh.cost
            assert resumed.result.strategy.assignment == \
                fresh.strategy.assignment
