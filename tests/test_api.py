"""The `repro.api` facade: Problem / search / simulate / re-exports."""

from __future__ import annotations

import warnings

import pytest

import repro
from repro.api import (
    FrontierPoint,
    Problem,
    RunContext,
    RunOutcome,
    search,
    select_point,
    simulate,
)
from repro.core.machine import RTX2080TI


@pytest.fixture(scope="module")
def alexnet8() -> Problem:
    return Problem.from_benchmark("alexnet", p=8)


def test_from_benchmark_binds_instance(alexnet8):
    assert alexnet8.p == 8
    assert alexnet8.space.p == 8
    assert alexnet8.machine.name == "1080Ti"
    assert len(list(alexnet8.graph)) > 0


def test_from_benchmark_unknown_name():
    with pytest.raises(ValueError, match="unknown benchmark"):
        Problem.from_benchmark("resnet9000", p=8)


def test_from_benchmark_machine_and_mode():
    prob = Problem.from_benchmark("alexnet", p=4, machine=RTX2080TI,
                                  mode="divisors")
    assert prob.machine is RTX2080TI
    assert prob.space.mode == "divisors"


def test_from_graph(chain3):
    prob = Problem.from_graph(chain3, p=4)
    assert prob.p == 4
    assert prob.cost_model().machine is prob.machine


def test_search_matches_direct_pipeline(alexnet8):
    from repro.runtime import execute_search

    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        via_api = search(alexnet8)
        direct = execute_search(alexnet8.graph, alexnet8.space,
                                alexnet8.machine)
    assert isinstance(via_api, RunOutcome)
    assert via_api.result.cost == direct.result.cost
    assert via_api.result.strategy.assignment == \
        direct.result.strategy.assignment


def test_search_accepts_ctx(alexnet8):
    from repro.obs import Metrics, Tracer

    tr, mx = Tracer(), Metrics()
    out = search(alexnet8, ctx=RunContext(tracer=tr, metrics=mx))
    assert {r["name"] for r in tr.records} >= {"run", "tables", "search"}
    assert mx.counter("dp_cells_total").snapshot() > 0
    assert out.result.cost > 0


def test_simulate_accepts_result_or_strategy(alexnet8):
    out = search(alexnet8, method="data_parallel")
    rep_from_result = simulate(alexnet8, out.result)
    rep_from_strategy = simulate(alexnet8, out.result.strategy)
    assert rep_from_result.step_time == rep_from_strategy.step_time
    assert rep_from_result.throughput > 0


def test_top_level_reexports():
    assert repro.Problem is Problem
    assert repro.RunContext is RunContext
    assert repro.search is search
    assert repro.simulate is simulate
    assert repro.api.Problem is Problem
    for name in ("Problem", "RunContext", "api", "obs", "search", "simulate"):
        assert name in repro.__all__


class TestFingerprint:
    """`Problem.fingerprint`: the public coalescing/caching key."""

    def test_stable_hex_digest(self, alexnet8):
        fp = alexnet8.fingerprint()
        assert fp == alexnet8.fingerprint()
        assert len(fp) == 64 and int(fp, 16) >= 0

    @pytest.mark.parametrize("kwargs,digest", [
        ({}, "cbc8c1c1e6706de354e44a7f42f6f34e"
             "5391fcdd9345bf5c7f9f447170a1a5a1"),
        ({"reduce": True}, "2a3e64de0ee3d2e26b6abcf9bf68cd3b"
                           "c8291306c5f89fd6f076b10bb83c6d99"),
        ({"objective": "frontier"}, "2d45c0959729c31010220a1c31d22c66"
                                    "0cb10c9137e53c5b4cca0cbab942c630"),
    ], ids=["cost", "reduce", "frontier"])
    def test_golden_digest(self, alexnet8, kwargs, digest):
        """Journals, fleet task ids and the serve cache key on these
        digests: a change here orphans every stored run."""
        assert alexnet8.fingerprint(**kwargs) == digest

    def test_equal_problems_have_equal_fingerprints(self, alexnet8):
        rebuilt = Problem.from_benchmark("alexnet", p=8)
        assert rebuilt.fingerprint() == alexnet8.fingerprint()

    def test_covers_search_parameters(self, alexnet8):
        base = alexnet8.fingerprint()
        assert alexnet8.fingerprint(seed=1) != base
        assert alexnet8.fingerprint(method="greedy") != base
        assert alexnet8.fingerprint(reduce=True) != base
        assert alexnet8.fingerprint(resilient=True) != base
        assert alexnet8.fingerprint(memory_budget=1 << 20) != base

    def test_covers_the_problem_itself(self, alexnet8):
        assert Problem.from_benchmark("alexnet", p=4).fingerprint() != \
            alexnet8.fingerprint()
        assert Problem.from_benchmark(
            "alexnet", p=8, machine=RTX2080TI).fingerprint() != \
            alexnet8.fingerprint()

    def test_reduce_spellings_resolve_before_hashing(self, alexnet8):
        # False/"off"/"never" are one resolved mode; True is "auto".
        assert alexnet8.fingerprint(reduce=False) == \
            alexnet8.fingerprint(reduce="off") == \
            alexnet8.fingerprint(reduce="never")
        assert alexnet8.fingerprint(reduce=True) == \
            alexnet8.fingerprint(reduce="auto")

    def test_default_memory_budget_is_explicit(self, alexnet8):
        from repro.core.dp import DEFAULT_MEMORY_BUDGET

        assert alexnet8.fingerprint() == \
            alexnet8.fingerprint(memory_budget=DEFAULT_MEMORY_BUDGET)

    def test_objective_in_fingerprint(self, alexnet8):
        base = alexnet8.fingerprint()
        assert alexnet8.fingerprint(objective="cost") == base
        frontier = alexnet8.fingerprint(objective="frontier")
        assert frontier != base
        assert alexnet8.fingerprint(objective="frontier:eps=0.1") != frontier


class TestFrontierApi:
    """`search(objective=)`, `select_point`, and the uniform
    ``.frontier`` surface."""

    @pytest.fixture(scope="class")
    def chain_problem(self):
        from tests.conftest import build_dag

        g = build_dag(4, [(0, 2)], param_mask=0b1010, reduction_mask=0b0100)
        return Problem.from_graph(g, p=8)

    def test_scalar_search_exposes_length_one_frontier(self, chain_problem):
        out = search(chain_problem)
        assert len(out.result.frontier) == 1
        assert isinstance(out.result.frontier[0], FrontierPoint)
        assert out.result.frontier[0].cost == out.result.cost

    def test_frontier_search_min_cost_bit_identical(self, chain_problem):
        scalar = search(chain_problem)
        out = search(chain_problem, objective="frontier")
        assert out.result.frontier[0].cost == scalar.result.cost
        assert len(out.result.frontier) >= 1

    def test_select_point_no_budget_returns_min_cost(self, chain_problem):
        out = search(chain_problem, objective="frontier")
        assert select_point(out.result.frontier, None) == \
            out.result.frontier[0]

    def test_select_point_budget_picks_cheapest_fit(self, chain_problem):
        out = search(chain_problem, objective="frontier")
        frontier = out.result.frontier
        smallest = frontier[-1]  # ascending cost => descending memory
        picked = select_point(frontier, smallest.peak_bytes)
        assert picked.peak_bytes <= smallest.peak_bytes
        assert picked == smallest

    def test_select_point_unsatisfiable_budget_raises(self, chain_problem):
        from repro.core.exceptions import SearchResourceError

        out = search(chain_problem, objective="frontier")
        tightest = min(pt.peak_bytes for pt in out.result.frontier)
        with pytest.raises(SearchResourceError) as exc:
            select_point(out.result.frontier, tightest - 1.0)
        assert exc.value.requested_bytes == int(tightest)
        assert exc.value.budget_bytes == int(tightest - 1.0)

    def test_select_point_empty_frontier_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            select_point((), None)

    def test_simulate_accepts_frontier_point(self, chain_problem):
        out = search(chain_problem, objective="frontier")
        pt = select_point(out.result.frontier, None)
        rep_from_point = simulate(chain_problem, pt)
        rep_from_strategy = simulate(chain_problem, pt.strategy)
        assert rep_from_point.step_time == rep_from_strategy.step_time

    def test_frontier_point_reexported(self):
        assert repro.api.FrontierPoint is FrontierPoint
