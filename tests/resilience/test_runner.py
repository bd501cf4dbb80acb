"""Tests for the gracefully degrading search runner."""

import numpy as np
import pytest

from repro.core.configs import ConfigSpace
from repro.core.costmodel import CostModel
from repro.core.dp import find_best_strategy
from repro.core.exceptions import SearchResourceError
from repro.core.machine import GTX1080TI
from repro.core.sequencer import breadth_first_seq
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

    def test_rejects_bad_factor(self, problem):
        _, space, tables = problem
        with pytest.raises(ValueError):
            coarsen_config_space(space, tables, factor=1)


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
                               memory_budget=budget, chunk_cells=4096)
        res, rep = resilient_find_best_strategy(
            g, space, tables, order=order, memory_budget=budget,
            chunk_cells=4096)
        assert rep.succeeded
        assert "generateseq-order" in rep.degradations
        assert res.cost == pytest.approx(
            find_best_strategy(g, space, tables).cost)

    def test_frontier_select_rescues_tight_budget(self, problem):
        """A tightened budget that some frontier point fits is rescued by
        the exact frontier-select rung — not by lossy coarsening."""
        g, space, tables = problem
        gen_peak = int(find_best_strategy(g, space, tables)
                       .stats["peak_bytes"])
        budget = gen_peak // 2
        with pytest.raises(SearchResourceError):
            find_best_strategy(g, space, tables, memory_budget=budget)
        res, rep = resilient_find_best_strategy(
            g, space, tables, memory_budget=budget)
        assert rep.succeeded
        assert "frontier-select" in rep.degradations
        assert not any(s.startswith("coarsen") for s in rep.degradations)
        assert res.method == "pase-dp-resilient+frontier"
        res.strategy.validate(g, space.p)
        # The selection is exact and self-describing: a length-1 frontier
        # whose point is the result, with its footprint in the stats.
        assert res.frontier[0].cost == res.cost
        assert res.frontier[0].peak_bytes <= budget
        assert res.stats["frontier_selected_peak_bytes"] == \
            res.frontier[0].peak_bytes
        assert res.stats["resilience_retries"] == float(rep.retries)

    def test_coarsening_rescues_when_no_frontier_point_fits(self, problem):
        """A budget below every frontier footprint exhausts rung 4 and
        falls through to configuration-space coarsening."""
        g, space, tables = problem
        frontier = find_best_strategy(g, space, tables,
                                      objective="frontier").frontier
        budget = int(min(pt.peak_bytes for pt in frontier)) - 1
        res, rep = resilient_find_best_strategy(
            g, space, tables, memory_budget=budget)
        assert rep.succeeded
        assert "frontier-select" in rep.degradations
        failed = next(a for a in rep.attempts
                      if a.stage == "frontier-select")
        assert not failed.ok
        assert failed.requested_bytes is not None
        assert any(s.startswith("coarsen") for s in rep.degradations)
        # The coarsened optimum is still a valid strategy on the graph.
        res.strategy.validate(g, space.p)
        assert np.isfinite(res.cost)

    def test_default_budget_never_runs_frontier_select(self, problem):
        """At the default budget the rung is skipped entirely — scalar
        callers keep the scalar ladder."""
        g, space, tables = problem
        _, rep = resilient_find_best_strategy(g, space, tables)
        assert "frontier-select" not in rep.degradations

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
        g, space, tables = problem
        with pytest.raises(SearchResourceError) as exc:
            resilient_find_best_strategy(g, space, tables, memory_budget=8)
        report = exc.value.report
        assert not report.succeeded
        assert report.retries >= 1
        assert any(s.startswith("coarsen") for s in report.degradations)
        assert "FAILED" in report.summary()
