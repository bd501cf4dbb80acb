"""Tests for fault plans and their injection into the step simulator."""

import math
import re

import numpy as np
import pytest

from repro.baselines import data_parallel_strategy
from repro.cluster import simulate_step
from repro.cluster.events import ListScheduler
from repro.core.exceptions import FaultPlanError
from repro.core.machine import GTX1080TI
from repro.models import mlp
from repro.resilience import (
    DeviceFailure,
    FaultInjector,
    FaultPlan,
    LinkDegradation,
    Straggler,
    TransientFaults,
)


@pytest.fixture(scope="module")
def small_mlp():
    return mlp(batch=64, hidden=(256, 256), classes=128)


def midstep_failure(device=1):
    return FaultPlan(
        device_failures=(DeviceFailure(device=device, time=0.5, downtime=0.5),),
        relative_times=True)


class TestFaultPlan:
    def test_rejects_device_outside_cluster(self):
        with pytest.raises(FaultPlanError):
            midstep_failure(device=9).validate(4)

    def test_rejects_infinite_downtime(self):
        plan = FaultPlan(device_failures=(
            DeviceFailure(device=0, time=0.1, downtime=math.inf),))
        with pytest.raises(FaultPlanError):
            plan.validate(4)

    def test_rejects_sublinear_slowdown(self):
        with pytest.raises(FaultPlanError):
            FaultPlan(stragglers=(Straggler(0, 0.5),)).validate(4)
        with pytest.raises(FaultPlanError):
            FaultPlan(link_degradations=(LinkDegradation(0, 0.0),)).validate(4)

    def test_rejects_bad_transient_probability(self):
        with pytest.raises(FaultPlanError):
            FaultPlan(transients=TransientFaults(probability=1.5)).validate(4)

    @pytest.mark.parametrize("text", [
        '{"device_failures": [{"device": 1, "time": NaN}]}',
        '{"device_failures": [{"device": 1, "time": Infinity}]}',
        '{"stragglers": [{"device": 1, "slowdown": NaN}]}',
        '{"link_degradations": [{"device": 1, "factor": Infinity}]}',
        '{"transients": {"probability": 0.5, "backoff": NaN}}',
    ], ids=["nan-time", "inf-time", "nan-slowdown", "inf-factor",
            "nan-backoff"])
    def test_rejects_non_finite_numbers(self, text):
        """Python's JSON decoder accepts NaN and Infinity.  A NaN
        fail-stop time overlaps every task, so the injector's fixed
        point never settles: it must not get past validation."""
        with pytest.raises(FaultPlanError, match="finite"):
            FaultPlan.from_json(text).validate(4)

    def test_json_round_trip(self):
        plan = FaultPlan(
            device_failures=(DeviceFailure(1, 0.5, 0.25),),
            stragglers=(Straggler(2, 3.0),),
            link_degradations=(LinkDegradation(0, 2.0),),
            transients=TransientFaults(probability=0.1, seed=5),
            relative_times=True)
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_malformed_json_raises(self):
        with pytest.raises(FaultPlanError):
            FaultPlan.from_json("not json")
        with pytest.raises(FaultPlanError):
            FaultPlan.from_json("[1, 2]")
        with pytest.raises(FaultPlanError):
            FaultPlan.from_json('{"stragglers": [{"gpu": 1}]}')

    def test_resolve_scales_relative_times(self):
        plan = midstep_failure()
        resolved = plan.resolve(2.0)
        assert resolved.device_failures[0].time == 1.0
        assert resolved.device_failures[0].downtime == 1.0
        assert not resolved.relative_times
        # Absolute plans resolve to themselves.
        assert resolved.resolve(123.0) is resolved

    def test_failed_devices_deduplicated(self):
        plan = FaultPlan(device_failures=(
            DeviceFailure(2, 0.1), DeviceFailure(0, 0.2), DeviceFailure(2, 0.3)))
        assert plan.failed_devices() == (0, 2)


class TestPlanTypes:
    """`FaultPlan.from_dict` checks names and JSON types like a task
    document: no coercion, and a JSON bool is never a number."""

    @pytest.mark.parametrize("doc,field", [
        ({"stragglerz": [{"device": 1, "slowdown": 2.0}]}, "stragglerz"),
        ({"device_failures": [{"device": "1", "time": 0.1}]},
         "device_failures[0].device"),
        ({"stragglers": [{"device": 1, "slowdown": "2"}]},
         "stragglers[0].slowdown"),
        ({"transients": {"probability": "0.5"}}, "transients.probability"),
        ({"relative_times": "false"}, "relative_times"),
        ({"stragglers": [{"device": True, "slowdown": 2.0}]},
         "stragglers[0].device"),
        ({"link_degradations": [{"device": 1.9, "factor": 2.0}]},
         "link_degradations[0].device"),
    ], ids=["misspelled-key", "string-device", "string-slowdown",
            "string-probability", "string-relative-times", "bool-device",
            "float-device"])
    def test_rejected_naming_the_field(self, doc, field):
        with pytest.raises(FaultPlanError, match=re.escape(field + ":")):
            FaultPlan.from_dict(doc)

    def test_every_problem_listed_once(self):
        doc = {"stragglers": [{"slowdown": 2}, "fast"],
               "transients": {"probability": 0.1, "seed": 0.5, "x": 1},
               "link_degradations": {"device": 0, "factor": 2.0}}
        with pytest.raises(FaultPlanError) as err:
            FaultPlan.from_dict(doc)
        assert str(err.value) == (
            "invalid fault plan: stragglers[0].device: required; "
            "stragglers[1]: expected an object; "
            "link_degradations: expected an array; "
            "transients.x: unknown field; transients.seed: expected an int")

    def test_ints_are_numbers(self):
        plan = FaultPlan.from_dict({
            "device_failures": [{"device": 0, "time": 1, "downtime": 2}],
            "transients": {"probability": 0, "backoff": 0, "seed": 3}})
        assert plan.device_failures[0] == DeviceFailure(0, 1, 2)
        assert plan.transients == TransientFaults(0, 0, seed=3)


class TestInjector:
    def test_requires_resolved_plan(self):
        with pytest.raises(FaultPlanError):
            FaultInjector(midstep_failure(), 4)

    def test_straggler_stretches_compute(self):
        inj = FaultInjector(FaultPlan(stragglers=(Straggler(0, 2.0),)), 2)
        start, dur = inj.apply("fwd", "f", (("gpu", 0),), 0.0, 1.0)
        assert (start, dur) == (0.0, 2.0)
        assert inj.events[0].fault == "straggler"
        # Other devices untouched.
        assert inj.apply("fwd", "f2", (("gpu", 1),), 0.0, 1.0) == (0.0, 1.0)

    def test_link_degradation_stretches_transfers(self):
        plan = FaultPlan(link_degradations=(LinkDegradation(1, 3.0),))
        inj = FaultInjector(plan, 2)
        assert inj.apply("xfer", "x", (("tx", 0), ("rx", 1)), 0.0, 1.0) \
            == (0.0, 3.0)

    def test_failstop_restarts_task_after_window(self):
        plan = FaultPlan(device_failures=(
            DeviceFailure(device=0, time=1.0, downtime=2.0),))
        inj = FaultInjector(plan, 1)
        gpu0 = (("gpu", 0),)
        # Overlaps the blackout: partial work lost, restarts at t=3.
        start, dur = inj.apply("fwd", "f", gpu0, 0.5, 1.0)
        assert (start, dur) == (3.0, 1.0)
        # Entirely before or after: untouched.
        assert inj.apply("fwd", "f", gpu0, 3.5, 1.0) == (3.5, 1.0)
        assert inj.apply("fwd", "e", gpu0, 0.0, 0.5) == (0.0, 0.5)

    def test_transient_retries_deterministic(self):
        plan = FaultPlan(transients=TransientFaults(
            probability=0.9, backoff=0.1, max_retries=3, seed=42))
        runs = []
        for _ in range(2):
            inj = FaultInjector(plan, 1)
            runs.append(inj.apply("gradsync", "g", (("tx", 0), ("rx", 0)),
                                  0.0, 1.0))
        assert runs[0] == runs[1]
        assert runs[0][1] > 1.0  # p=0.9 practically guarantees a retry

    def test_transients_skip_non_collectives(self):
        plan = FaultPlan(transients=TransientFaults(probability=0.99, seed=0))
        inj = FaultInjector(plan, 1)
        assert inj.apply("fwd", "f", (("gpu", 0),), 0.0, 1.0) == (0.0, 1.0)


class TestSimulateWithFaults:
    def test_midstep_failstop_increases_step_time(self, small_mlp):
        s = data_parallel_strategy(small_mlp, 4)
        healthy = simulate_step(small_mlp, s, GTX1080TI, 4)
        faulted = simulate_step(small_mlp, s, GTX1080TI, 4,
                                faults=midstep_failure())
        assert faulted.baseline_step_time == pytest.approx(healthy.step_time)
        assert faulted.step_time > healthy.step_time
        assert faulted.fault_slowdown > 1.0
        assert any(e.fault == "failstop" for e in faulted.fault_events)
        assert "faulted" in faulted.summary()

    def test_empty_plan_is_noop(self, small_mlp):
        s = data_parallel_strategy(small_mlp, 4)
        rep = simulate_step(small_mlp, s, GTX1080TI, 4, faults=FaultPlan())
        assert rep.baseline_step_time is None
        assert rep.fault_events == []
        assert rep.fault_slowdown == 1.0

    def test_faulted_step_deterministic(self, small_mlp):
        s = data_parallel_strategy(small_mlp, 4)
        plan = FaultPlan(
            stragglers=(Straggler(1, 2.5),),
            transients=TransientFaults(probability=0.3, seed=11))
        a = simulate_step(small_mlp, s, GTX1080TI, 4, faults=plan)
        b = simulate_step(small_mlp, s, GTX1080TI, 4, faults=plan)
        assert a.step_time == b.step_time
        assert len(a.fault_events) == len(b.fault_events)

    def test_straggler_bounded_by_slowdown(self, small_mlp):
        """One slow device cannot stretch the step by more than its own
        slowdown factor."""
        s = data_parallel_strategy(small_mlp, 4)
        plan = FaultPlan(stragglers=(Straggler(0, 2.0),))
        healthy = simulate_step(small_mlp, s, GTX1080TI, 4)
        faulted = simulate_step(small_mlp, s, GTX1080TI, 4, faults=plan)
        assert healthy.step_time < faulted.step_time
        assert faulted.step_time <= healthy.step_time * 2.0 + 1e-12

    def test_scheduler_honors_injector_hook(self):
        """The raw scheduler applies the perturbation hook per task."""
        sched = ListScheduler([("gpu", 0)])
        gpu = np.zeros(1, dtype=np.int64)
        a = sched.add("fwd", ("a", ""), [0], gpu, 1.0)
        sched.add("fwd", ("b", ""), [0], gpu, 1.0, np.array([0, 1]),
                  np.array([a]))
        plan = FaultPlan(stragglers=(Straggler(0, 3.0),))
        done = sched.schedule(faults=FaultInjector(plan, 1))
        assert done.makespan == pytest.approx(6.0)
        assert sched.schedule().makespan == pytest.approx(2.0)  # healthy re-run
