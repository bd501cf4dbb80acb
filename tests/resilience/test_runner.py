"""Tests for the gracefully degrading search runner."""

import numpy as np
import pytest

from repro.core.configs import ConfigSpace
from repro.core.costmodel import CostModel
from repro.core.dp import find_best_strategy
from repro.core.exceptions import SearchResourceError
from repro.core.machine import GTX1080TI
from repro.core.sequencer import breadth_first_seq
from repro.experiments.common import build_setup
from repro.resilience import coarsen_config_space, resilient_find_best_strategy
from tests.conftest import build_dag


@pytest.fixture(scope="module")
def problem():
    g = build_dag(6, [(0, 2), (1, 3), (2, 4)], batch=16, width=16)
    space = ConfigSpace.build(g, 8)
    tables = CostModel(GTX1080TI).build_tables(g, space)
    return g, space, tables


class TestCoarsening:
    def test_halves_config_counts(self, problem):
        g, space, tables = problem
        sub_space, sub_tables = coarsen_config_space(space, tables)
        for name in space.tables:
            assert sub_space.size(name) <= -(-space.size(name) // 2) + 1
            assert sub_space.size(name) >= 1

    def test_keeps_serial_config(self, problem):
        g, space, tables = problem
        sub_space, _ = coarsen_config_space(space, tables)
        for op in g:
            serial = (1,) * op.rank
            assert sub_space.index_of(op.name, serial) >= 0

    def test_costs_sliced_consistently(self, problem):
        """A strategy found in the coarsened space costs the same under
        the coarsened and the original oracle."""
        g, space, tables = problem
        sub_space, sub_tables = coarsen_config_space(space, tables)
        res = find_best_strategy(g, sub_space, sub_tables)
        assert res.cost == pytest.approx(res.strategy.cost(tables))


class TestResilientSearch:
    def test_no_degradation_when_budget_fits(self, problem):
        g, space, tables = problem
        res, rep = resilient_find_best_strategy(g, space, tables)
        baseline = find_best_strategy(g, space, tables)
        assert res.cost == pytest.approx(baseline.cost)
        assert rep.succeeded and rep.retries == 0
        assert rep.attempts[0].stage == "initial" and rep.attempts[0].ok
        assert res.stats["resilience_retries"] == 0.0

    def test_order_fallback_rescues_bad_ordering(self):
        """An ordering whose tables blow the budget falls back to
        GENERATESEQ and completes.  A star-shaped DAG makes the
        breadth-first dependent sets (and hence its tables) huge while
        GENERATESEQ stays small — the Table I OOM pattern in miniature."""
        g = build_dag(8, [(0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (1, 7)],
                      batch=16, width=16)
        space = ConfigSpace.build(g, 8)
        tables = CostModel(GTX1080TI).build_tables(g, space)
        order = breadth_first_seq(g)
        # Between GENERATESEQ's peak (~70 KB) and breadth-first's (~28 MB).
        budget = 1 << 20
        with pytest.raises(SearchResourceError):
            find_best_strategy(g, space, tables, order=order,
                               memory_budget=budget)
        res, rep = resilient_find_best_strategy(
            g, space, tables, order=order, memory_budget=budget)
        assert rep.succeeded
        assert "generateseq-order" in rep.degradations
        assert res.cost == pytest.approx(
            find_best_strategy(g, space, tables).cost)

    def test_coarsening_rescues_when_no_frontier_point_fits(self, problem):
        """A budget that blows the initial DP is rescued by coarsening.
        This one is also below every frontier point's device footprint:
        the budget counts DP-state bytes, and the ladder never reads it
        as a cap on device memory."""
        g, space, tables = problem
        frontier = find_best_strategy(g, space, tables,
                                      objective="frontier").frontier
        budget = int(min(pt.peak_bytes for pt in frontier)) - 1
        with pytest.raises(SearchResourceError):
            find_best_strategy(g, space, tables, memory_budget=budget)
        res, rep = resilient_find_best_strategy(
            g, space, tables, memory_budget=budget)
        assert rep.succeeded
        assert rep.degradations[0] == "coarsen x2"
        assert all(s.startswith("coarsen") for s in rep.degradations)
        assert res.method == "pase-dp-resilient"
        # The coarsened optimum is still a valid strategy on the graph.
        res.strategy.validate(g, space.p)
        assert np.isfinite(res.cost)

    def test_verify_flow_coarsens_twice(self):
        """inception_v3 p=8 under 200,000 bytes (its first DP table
        alone needs 769,868): the space coarsened twice answers, with
        the plain DP's optimum over that space."""
        s = build_setup("inception_v3", 8)
        res, rep = resilient_find_best_strategy(
            s.graph, s.space, s.tables, memory_budget=200_000)
        assert [a.stage for a in rep.attempts] == [
            "initial", "coarsen x2", "coarsen x4"]
        space, tables = coarsen_config_space(
            *coarsen_config_space(s.space, s.tables))
        ref = find_best_strategy(s.graph, space, tables)
        assert res.cost == ref.cost
        assert res.strategy.assignment == ref.strategy.assignment

    def test_tight_frontier_budget_succeeds_first_time(self):
        """alexnet p=32's exact frontier under 32 MiB of DP state: its
        merges run in chunks of one block of candidates, so the first
        attempt answers with the default budget's frontier, point for
        point."""
        s = build_setup("alexnet", 32)
        ref = find_best_strategy(s.graph, s.space, s.tables,
                                 objective="frontier")
        res, rep = resilient_find_best_strategy(
            s.graph, s.space, s.tables, objective="frontier",
            memory_budget=32 << 20)
        assert [a.stage for a in rep.attempts] == ["initial"]
        assert [(pt.cost, pt.peak_bytes, pt.strategy.assignment)
                for pt in res.frontier] == \
            [(pt.cost, pt.peak_bytes, pt.strategy.assignment)
             for pt in ref.frontier]

    def test_retry_chain_recorded(self, problem):
        g, space, tables = problem
        gen_peak = int(find_best_strategy(g, space, tables)
                       .stats["peak_bytes"])
        res, rep = resilient_find_best_strategy(
            g, space, tables, memory_budget=gen_peak // 2)
        assert len(rep.attempts) == rep.retries + 1
        assert all(not a.ok for a in rep.attempts[:-1])
        assert rep.attempts[-1].ok
        failed = rep.attempts[0]
        assert failed.requested_bytes is not None
        assert failed.budget_bytes == gen_peak // 2
        text = rep.summary()
        assert "initial" in text and "ok" in text
        assert "degradation" in text

    def test_hopeless_budget_raises_with_report(self, problem):
        """A hopeless budget under a caller's ordering runs every rung,
        and nothing else: as requested, GENERATESEQ, three halvings."""
        g, space, tables = problem
        with pytest.raises(SearchResourceError) as exc:
            resilient_find_best_strategy(g, space, tables,
                                         order=breadth_first_seq(g),
                                         memory_budget=8)
        report = exc.value.report
        assert not report.succeeded
        assert [a.stage for a in report.attempts] == [
            "initial", "generateseq-order", "coarsen x2", "coarsen x4",
            "coarsen x8"]
        assert "FAILED" in report.summary()
