"""Tests for elastic re-planning after fail-stop device loss."""

import math

import pytest

from repro.baselines import data_parallel_strategy
from repro.core.exceptions import FaultPlanError
from repro.core.machine import GTX1080TI
from repro.models import mlp
from repro.resilience import (
    CheckpointPolicy,
    DeviceFailure,
    FaultPlan,
    Straggler,
    elastic_replan,
)


@pytest.fixture(scope="module")
def small_mlp():
    return mlp(batch=64, hidden=(256, 256), classes=128)


def failstop_plan():
    return FaultPlan(
        device_failures=(DeviceFailure(device=1, time=0.5, downtime=0.5),),
        relative_times=True)


class TestElasticReplan:
    def test_replan_on_survivors_is_valid_and_finite(self, small_mlp):
        s = data_parallel_strategy(small_mlp, 4)
        rep = elastic_replan(small_mlp, s, GTX1080TI, 4, failstop_plan())
        assert rep.old_p == 4 and rep.new_p == 3
        assert rep.failed_devices == (1,)
        rep.strategy.validate(small_mlp, 3)
        assert math.isfinite(rep.recovery_cost) and rep.recovery_cost > 0
        assert rep.degraded_step_time > rep.healthy_step_time
        assert rep.replanned_step_time > 0
        assert rep.resilience.succeeded

    def test_breakeven_when_replanning_wins(self, small_mlp):
        """A long blackout makes the degraded step so slow that
        re-planning pays off in finitely many steps."""
        s = data_parallel_strategy(small_mlp, 4)
        plan = FaultPlan(device_failures=(
            DeviceFailure(device=1, time=0.5, downtime=20.0),),
            relative_times=True)
        rep = elastic_replan(small_mlp, s, GTX1080TI, 4, plan)
        assert rep.degraded_step_time > rep.replanned_step_time
        assert math.isfinite(rep.breakeven_steps)
        assert rep.breakeven_steps == pytest.approx(
            rep.recovery_cost
            / (rep.degraded_step_time - rep.replanned_step_time))

    def test_checkpoint_policy_prices_restore_and_redo(self, small_mlp):
        s = data_parallel_strategy(small_mlp, 4)
        policy = CheckpointPolicy(interval_steps=10, checkpoint_time=0.1,
                                  restore_time=5.0)
        rep = elastic_replan(small_mlp, s, GTX1080TI, 4, failstop_plan(),
                             policy=policy)
        assert rep.restore_time == 5.0
        assert rep.lost_work == pytest.approx(
            policy.expected_lost_work(rep.healthy_step_time))
        no_ckpt = elastic_replan(small_mlp, s, GTX1080TI, 4, failstop_plan())
        assert no_ckpt.restore_time == 0.0
        # Without checkpoints only the interrupted partial step is redone.
        assert no_ckpt.lost_work == pytest.approx(
            0.5 * no_ckpt.healthy_step_time)

    def test_requires_a_failstop(self, small_mlp):
        s = data_parallel_strategy(small_mlp, 4)
        plan = FaultPlan(stragglers=(Straggler(0, 2.0),))
        with pytest.raises(FaultPlanError):
            elastic_replan(small_mlp, s, GTX1080TI, 4, plan)

    def test_requires_survivors(self, small_mlp):
        s = data_parallel_strategy(small_mlp, 2)
        plan = FaultPlan(device_failures=(
            DeviceFailure(0, 0.5), DeviceFailure(1, 0.5)),
            relative_times=True)
        with pytest.raises(FaultPlanError):
            elastic_replan(small_mlp, s, GTX1080TI, 2, plan)

    def test_summary_renders(self, small_mlp):
        s = data_parallel_strategy(small_mlp, 4)
        rep = elastic_replan(small_mlp, s, GTX1080TI, 4, failstop_plan())
        text = rep.summary()
        assert "survivors" in text and "break-even" in text

    def test_same_inputs_same_report(self, small_mlp):
        """Every term of the report is modelled cluster time, so two runs
        print the same text; the survivor search's wall-clock seconds
        stay in the resilience report."""
        s = data_parallel_strategy(small_mlp, 4)
        policy = CheckpointPolicy(interval_steps=100, checkpoint_time=0.5,
                                  restore_time=2.0)
        a, b = (elastic_replan(small_mlp, s, GTX1080TI, 4, failstop_plan(),
                               policy=policy) for _ in range(2))
        assert a.summary() == b.summary()
        assert a.recovery_cost == a.restore_time + a.lost_work
