"""RunContext bundling and trace/phase coverage."""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings

from repro.core.configs import ConfigSpace
from repro.core.costmodel import CostModel
from repro.core.dp import find_best_strategy
from repro.core.machine import GTX1080TI
from repro.obs import NULL_METRICS, NULL_TRACER, Metrics, Tracer, span_tree
from repro.runtime import RunBudget, RunContext, execute_search

from ..conftest import build_dag, small_dags


def _setup(graph, p=4):
    space = ConfigSpace.build(graph, p)
    model = CostModel(GTX1080TI)
    return space, model, model.build_tables(graph, space)


# -- composition ---------------------------------------------------------------

def test_make_checkpoint_none_when_nothing_to_poll():
    assert RunContext().make_checkpoint() is None


def test_make_checkpoint_explicit_override_wins():
    calls = []

    def ckpt(**kwargs):
        calls.append(kwargs)

    ctx = RunContext(budget=RunBudget(), checkpoint=ckpt)
    assert ctx.make_checkpoint() is ckpt


def test_make_checkpoint_instruments_with_metrics():
    mx = Metrics()
    ctx = RunContext(budget=RunBudget(), metrics=mx)
    ckpt = ctx.make_checkpoint()
    ckpt(phase="tables")
    ckpt(phase="search")
    assert mx.counter("checkpoint_polls_total").snapshot() == 2
    assert mx.histogram("checkpoint_poll_seconds").count == 2


def test_make_checkpoint_plain_without_metrics():
    ctx = RunContext(budget=RunBudget())
    ckpt = ctx.make_checkpoint()
    ckpt(phase="tables")  # must not raise; no registry to bump


def test_observe_installs_pair_and_default_is_noop():
    from repro.obs import current_metrics, current_tracer

    tr, mx = Tracer(), Metrics()
    with RunContext(tracer=tr, metrics=mx).observe():
        assert current_tracer() is tr
        assert current_metrics() is mx
    with RunContext().observe():  # None slots leave ambient alone
        assert current_tracer() is NULL_TRACER
        assert current_metrics() is NULL_METRICS


def test_with_overrides_returns_variant():
    ctx = RunContext(budget=RunBudget(deadline=5.0), cache="a")
    ctx2 = ctx.with_overrides(cache="b")
    assert ctx.cache == "a" and ctx2.cache == "b"
    assert ctx2.budget is ctx.budget


def test_memory_budget_default_and_explicit():
    from repro.core.dp import DEFAULT_MEMORY_BUDGET

    assert RunContext().memory_budget == DEFAULT_MEMORY_BUDGET
    ctx = RunContext(budget=RunBudget(memory_budget=123))
    assert ctx.memory_budget == 123


def test_ctx_checkpoint_is_polled(chain3):
    space, model, tables = _setup(chain3)
    calls = []

    def ckpt(**kwargs):
        calls.append(kwargs)

    find_best_strategy(chain3, space, tables,
                       ctx=RunContext(checkpoint=ckpt))
    assert calls  # the DP loop cooperatively polled


# -- traced runs ---------------------------------------------------------------

def test_traced_run_is_bit_identical_and_covers_phases(diamond):
    space, _, _ = _setup(diamond)
    plain = execute_search(diamond, space, GTX1080TI)
    tr, mx = Tracer(), Metrics()
    traced = execute_search(diamond, space, GTX1080TI,
                            ctx=RunContext(tracer=tr, metrics=mx))
    assert traced.result.cost == plain.result.cost
    assert traced.result.strategy.assignment == plain.result.strategy.assignment
    roots = span_tree(tr.records)
    assert [r["name"] for r in roots] == ["run"]
    names = {r["name"] for r in tr.records}
    for phase in traced.report.phases:
        assert phase.name in names
    assert mx.counter("dp_cells_total").snapshot() > 0


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(graph=small_dags(max_nodes=5))
def test_span_tree_covers_every_report_phase(graph):
    """Property: every phase the RunReport logs has a matching span."""
    space = ConfigSpace.build(graph, 4)
    tr = Tracer()
    outcome = execute_search(graph, space, GTX1080TI, reduce=True,
                             ctx=RunContext(tracer=tr))
    names = {r["name"] for r in tr.records}
    assert "run" in names
    for phase in outcome.report.phases:
        assert phase.name in names, (phase.name, sorted(names))
    # Single root, and it is the run span.
    roots = span_tree(tr.records)
    assert [r["name"] for r in roots] == ["run"]


def test_replayed_run_emits_zero_duration_spans(tmp_path, chain3):
    from repro.runtime import SearchJournal

    space, _, _ = _setup(chain3)
    journal = SearchJournal(tmp_path / "j")
    first = execute_search(chain3, space, GTX1080TI,
                           ctx=RunContext(journal=journal))
    tr = Tracer()
    journal2 = SearchJournal(tmp_path / "j")
    replay = execute_search(chain3, space, GTX1080TI, resume=True,
                            ctx=RunContext(journal=journal2, tracer=tr))
    assert replay.result.cost == first.result.cost
    replayed = [r for r in tr.records
                if (r.get("attrs") or {}).get("replayed")]
    assert {r["name"] for r in replayed} >= {"tables", "search"}
    for rec in replayed:
        if rec["name"] != "run":
            assert rec["seconds"] < 0.01
