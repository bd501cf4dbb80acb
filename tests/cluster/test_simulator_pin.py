"""Bit-for-bit pins of the cluster simulator's outputs.

The fixtures in ``tests/cluster/pins/`` were generated by
``tests/cluster/pins/regen.py`` and hold, as ``float.hex`` strings, every
number a simulated step reports:

* ``simulator.json`` — step time, task count, busy seconds per kind,
  per-resource utilization and a sha256 of the full ``keep_trace``
  records, for the bundled models under the DP, data-parallel and expert
  strategies on both machines.  The DP strategies are stored, so the
  test never searches;
* ``faults.json`` — faulted and fault-free step times and a sha256 of
  ``repr(fault_events)`` under one relative-time plan that exercises all
  four fault classes.

A refactor of the simulator must leave every pin unchanged; a change
that moves a number on purpose regenerates the fixtures and shows the
diff.  Every reported time must also stay a Python ``float``: a numpy
scalar leaking into a duration changes the fault-event reprs.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.baselines import data_parallel_strategy
from repro.baselines.expert import auto_expert_strategy
from repro.cluster import simulate_step
from repro.core.machine import GTX1080TI, RTX2080TI
from repro.core.strategy import Strategy
from repro.models import BENCHMARKS
from repro.resilience import (
    DeviceFailure,
    FaultPlan,
    LinkDegradation,
    Straggler,
    TransientFaults,
)

PINS = Path(__file__).parent / "pins"
MACHINES = {m.name: m for m in (GTX1080TI, RTX2080TI)}

#: (model, p, machine, strategy) of every pinned healthy step.
CASES = [(model, p, machine, strategy)
         for model in ("alexnet", "rnnlm", "transformer", "inception_v3")
         for p in (8, 16)
         for machine in MACHINES
         for strategy in ("dp", "data_parallel", "expert")]
#: The two ``search-reduce`` benchmark problems under the DP, on both
#: machines (host-staged links change which holder a transfer reads),
#: and data-parallel at p=64, whose gradient syncs span every device.
CASES += [(model, p, machine, "dp")
          for model, p in (("transformer", 64), ("inception_v3", 32))
          for machine in MACHINES]
CASES += [(model, 64, "1080Ti", "data_parallel")
          for model in ("transformer", "inception_v3")]

#: (model, p, machine) of every pinned faulted step, under the DP.
FAULT_CASES = [(model, p, machine)
               for model in ("alexnet", "transformer", "inception_v3")
               for p in (8, 16)
               for machine in MACHINES]
FAULT_CASES += [("transformer", 64, "1080Ti"), ("inception_v3", 32, "1080Ti")]

#: One plan with all four fault classes, in fractions of the healthy step.
FAULT_PLAN = FaultPlan(
    device_failures=(DeviceFailure(device=1, time=0.3, downtime=0.2),),
    stragglers=(Straggler(device=2, slowdown=1.7),),
    link_degradations=(LinkDegradation(device=3, factor=2.5),),
    transients=TransientFaults(probability=0.2, backoff=1e-4, seed=7),
    relative_times=True)


def case_key(model: str, p: int, machine: str, strategy: str = "dp") -> str:
    return f"{model}/{p}/{machine}/{strategy}"


def strategy_key(model: str, p: int, machine: str) -> str:
    return f"{model}/{p}/{machine}"


def make_strategy(graph, model: str, p: int, machine: str, strategy: str,
                  stored: dict) -> Strategy:
    if strategy == "data_parallel":
        return data_parallel_strategy(graph, p)
    if strategy == "expert":
        return auto_expert_strategy(graph, p)
    return Strategy({n: tuple(c) for n, c in
                     stored[strategy_key(model, p, machine)].items()})


def trace_sha256(trace) -> str:
    """Digest of every record as (tid, kind, label, resources, start, end)."""
    h = hashlib.sha256()
    for r in trace:
        h.update(repr((r.tid, r.kind, r.label, r.resources,
                       r.start.hex(), r.end.hex())).encode())
        h.update(b"\n")
    return h.hexdigest()


def healthy_pin(report, traced) -> dict:
    """The pinned view of a healthy step; ``traced`` is the same step
    simulated with ``keep_trace=True``."""
    return {
        "step_time": report.step_time.hex(),
        "task_count": report.task_count,
        "busy_by_kind": {k: v.hex() for k, v in report.busy_by_kind.items()},
        "device_utilization": [[r[0], r[1], u.hex()] for r, u in
                               report.device_utilization.items()],
        "trace_sha256": trace_sha256(traced.trace),
    }


def faulted_pin(report) -> dict:
    return {
        "step_time": report.step_time.hex(),
        "baseline_step_time": report.baseline_step_time.hex(),
        "fault_events": len(report.fault_events),
        "fault_events_sha256": hashlib.sha256(
            repr(report.fault_events).encode()).hexdigest(),
    }


def load(name: str) -> dict:
    return json.loads((PINS / name).read_text())


@pytest.fixture(scope="module")
def graphs():
    return {name: BENCHMARKS[name]() for name in
            ("alexnet", "rnnlm", "transformer", "inception_v3")}


@pytest.fixture(scope="module")
def healthy():
    return load("simulator.json")


def _assert_floats(report) -> None:
    assert type(report.step_time) is float
    assert type(report.throughput) is float
    assert all(type(v) is float for v in report.busy_by_kind.values())
    assert all(type(v) is float for v in report.device_utilization.values())
    for r in report.trace:
        assert type(r.start) is float and type(r.end) is float
        assert all(type(dev) is int for _, dev in r.resources)


class TestHealthyPin:
    @pytest.mark.parametrize("model,p,machine,strategy", CASES,
                             ids=[case_key(*c) for c in CASES])
    def test_bit_identical(self, graphs, healthy, model, p, machine,
                           strategy):
        graph = graphs[model]
        strat = make_strategy(graph, model, p, machine, strategy,
                              healthy["strategies"])
        report = simulate_step(graph, strat, MACHINES[machine], p)
        traced = simulate_step(graph, strat, MACHINES[machine], p,
                               keep_trace=True)
        _assert_floats(report)
        _assert_floats(traced)
        assert len(traced.trace) == traced.task_count
        got = healthy_pin(report, traced)
        assert got == healthy["cases"][case_key(model, p, machine, strategy)]
        # The traced run reports the same summaries as the untraced one.
        assert healthy_pin(traced, traced) == got


class TestFaultPin:
    @pytest.mark.parametrize("model,p,machine", FAULT_CASES,
                             ids=[strategy_key(*c) for c in FAULT_CASES])
    def test_bit_identical(self, graphs, healthy, model, p, machine):
        graph = graphs[model]
        strat = make_strategy(graph, model, p, machine, "dp",
                              healthy["strategies"])
        report = simulate_step(graph, strat, MACHINES[machine], p,
                               faults=FAULT_PLAN)
        assert type(report.step_time) is float
        assert type(report.baseline_step_time) is float
        assert report.fault_events
        assert all(type(ev.delay) is float for ev in report.fault_events)
        assert {ev.fault for ev in report.fault_events} == {
            "failstop", "straggler", "link", "transient"}
        assert faulted_pin(report) == load("faults.json")[
            strategy_key(model, p, machine)]
