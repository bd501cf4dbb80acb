"""Tests for checkpoint/restart cost modeling."""

import pytest

from repro.core.exceptions import FaultPlanError
from repro.resilience import CheckpointPolicy, effective_step_time


class TestPolicy:
    def test_rejects_bad_interval(self):
        with pytest.raises(FaultPlanError):
            CheckpointPolicy(interval_steps=0)

    def test_rejects_negative_times(self):
        with pytest.raises(FaultPlanError):
            CheckpointPolicy(checkpoint_time=-1.0)

    def test_overhead_amortizes_over_interval(self):
        p = CheckpointPolicy(interval_steps=50, checkpoint_time=5.0)
        assert p.overhead_per_step() == pytest.approx(0.1)

    def test_expected_lost_work_is_half_interval(self):
        p = CheckpointPolicy(interval_steps=10, checkpoint_time=0.0)
        assert p.expected_lost_work(2.0) == pytest.approx(10.0)


class TestEffectiveStepTime:
    def test_failure_free_adds_only_write_overhead(self):
        p = CheckpointPolicy(interval_steps=100, checkpoint_time=1.0)
        assert effective_step_time(0.5, p) == pytest.approx(0.5 + 0.01)

    def test_failures_add_restore_and_redo(self):
        p = CheckpointPolicy(interval_steps=10, checkpoint_time=0.0,
                             restore_time=3.0)
        eff = effective_step_time(1.0, p, failures_per_step=0.1)
        # 1.0 + 0.1 * (3.0 restore + 5.0 expected redo)
        assert eff == pytest.approx(1.8)

    def test_monotone_in_failure_rate(self):
        p = CheckpointPolicy()
        a = effective_step_time(0.1, p, failures_per_step=1e-5)
        b = effective_step_time(0.1, p, failures_per_step=1e-3)
        assert b > a

    def test_rejects_nonpositive_step(self):
        with pytest.raises(FaultPlanError):
            effective_step_time(0.0, CheckpointPolicy())
