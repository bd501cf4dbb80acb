"""Checkpoint/restart cost modeling.

Long training runs survive fail-stops by periodically writing a
checkpoint and, on failure, restoring the last one and redoing the lost
steps.  This module folds that protocol into an *effective* step time:

``eff = step + C / k + λ · (R + (k/2) · step + C/2)``

where ``C`` is the checkpoint write time, ``k`` the checkpoint interval
in steps, ``λ`` the expected failures per step (``1 / MTBF``), ``R`` the
restore time, and ``(k/2)·step + C/2`` the expected redo work (a failure
lands uniformly inside a checkpoint interval).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.exceptions import FaultPlanError

__all__ = ["CheckpointPolicy", "effective_step_time"]


@dataclass(frozen=True)
class CheckpointPolicy:
    """How often checkpoints are written and what they cost.

    Attributes
    ----------
    interval_steps:
        Steps between consecutive checkpoints.
    checkpoint_time:
        Seconds to serialize and write one checkpoint.
    restore_time:
        Seconds to load the last checkpoint and restart the job.
    """

    interval_steps: int = 100
    checkpoint_time: float = 0.5
    restore_time: float = 2.0

    def __post_init__(self) -> None:
        if self.interval_steps < 1:
            raise FaultPlanError(
                f"checkpoint interval {self.interval_steps} must be >= 1 step")
        if self.checkpoint_time < 0 or self.restore_time < 0:
            raise FaultPlanError("checkpoint/restore times must be >= 0")

    def overhead_per_step(self) -> float:
        """Amortized checkpoint-write seconds added to every step."""
        return self.checkpoint_time / self.interval_steps

    def expected_lost_work(self, step_time: float) -> float:
        """Expected redo seconds when a failure strikes mid-interval."""
        return 0.5 * (self.interval_steps * step_time + self.checkpoint_time)


def effective_step_time(step_time: float, policy: CheckpointPolicy,
                        failures_per_step: float = 0.0) -> float:
    """Step time including checkpoint overhead and expected failure waste.

    ``failures_per_step`` is ``1 / MTBF`` with the MTBF expressed in
    steps; zero gives the failure-free overhead (write amortization only).
    """
    if step_time <= 0:
        raise FaultPlanError(f"step time {step_time} must be positive")
    if failures_per_step < 0:
        raise FaultPlanError(f"failure rate {failures_per_step} < 0")
    waste = failures_per_step * (policy.restore_time
                                 + policy.expected_lost_work(step_time))
    return step_time + policy.overhead_per_step() + waste
