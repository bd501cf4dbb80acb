"""Elastic re-planning after fail-stop device loss.

When a device fail-stops, the operator has two options:

* **continue degraded** — keep the old strategy and eat the fault plan's
  perturbations every step (the failed device stalling its shards, the
  stragglers, the flaky links);
* **re-plan elastically** — pay a one-time recovery cost (checkpoint
  restore + redo of the lost work) and then run healthy steps of a
  fresh strategy on the ``p - |failed|`` survivors.

:func:`elastic_replan` prices both: it simulates the degraded step,
re-runs the (resilient) DP on the survivor count, simulates the
re-planned step, and reports the recovery cost plus the break-even step
count after which re-planning wins.  Every term is modelled cluster
time, so the same inputs always give the same report; the survivor
search's own wall-clock seconds stay in ``resilience.attempts``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..core.configs import ConfigSpace
from ..core.costmodel import CostModel
from ..core.exceptions import FaultPlanError
from ..core.graph import CompGraph
from ..core.machine import MachineSpec
from ..core.strategy import Strategy
from .checkpoint import CheckpointPolicy
from .faults import FaultPlan
from .runner import ResilienceReport, resilient_find_best_strategy

__all__ = ["ElasticReplanReport", "elastic_replan"]


@dataclass
class ElasticReplanReport:
    """Degraded-vs-replanned comparison after fail-stop device loss."""

    failed_devices: tuple[int, ...]
    old_p: int
    new_p: int
    strategy: Strategy                 # best strategy on the survivors
    healthy_step_time: float           # old strategy, fault-free cluster
    degraded_step_time: float          # old strategy under the fault plan
    replanned_step_time: float         # new strategy on new_p devices
    restore_time: float                # checkpoint restore seconds
    lost_work: float                   # redo seconds (work since last ckpt)
    resilience: ResilienceReport

    @property
    def recovery_cost(self) -> float:
        """One-time seconds to switch: restore + redo."""
        return self.restore_time + self.lost_work

    @property
    def breakeven_steps(self) -> float:
        """Steps after which re-planning beats continuing degraded."""
        gain = self.degraded_step_time - self.replanned_step_time
        if gain <= 0:
            return math.inf
        return self.recovery_cost / gain

    def summary(self) -> str:
        from ..analysis.reporting import format_replan_report

        return format_replan_report(self)


def elastic_replan(
    graph: CompGraph,
    strategy: Strategy,
    machine: MachineSpec,
    p: int,
    plan: FaultPlan,
    *,
    mode: str = "pow2",
    policy: CheckpointPolicy | None = None,
) -> ElasticReplanReport:
    """Price continuing degraded vs re-planning on the survivor set.

    ``strategy`` is the strategy the cluster was running when ``plan``'s
    fail-stops struck; the plan must contain at least one device
    failure.  The survivor search runs through the resilient runner
    under `repro.core.dp.DEFAULT_MEMORY_BUDGET`, so a search that
    outgrows it degrades
    gracefully rather than aborting the recovery.
    """
    from ..cluster import simulate_step

    failed = plan.failed_devices()
    if not failed:
        raise FaultPlanError("elastic re-planning needs at least one "
                             "fail-stop device failure in the plan")
    new_p = p - len(failed)
    if new_p < 1:
        raise FaultPlanError(
            f"all {p} devices failed; no survivors to re-plan on")

    degraded = simulate_step(graph, strategy, machine, p, faults=plan)
    assert degraded.baseline_step_time is not None

    space = ConfigSpace.build(graph, new_p, mode=mode)
    tables = CostModel(machine).build_tables(graph, space)
    result, resilience = resilient_find_best_strategy(graph, space, tables)
    replanned = simulate_step(graph, result.strategy, machine, new_p)

    # Work lost to the first fail-stop: everything since the last
    # checkpoint (expected mid-interval hit), or — without a checkpoint
    # policy — just the partial step the failure interrupted.
    resolved = plan.resolve(degraded.baseline_step_time)
    first_failure = min(f.time for f in resolved.device_failures)
    if policy is not None:
        lost = policy.expected_lost_work(degraded.baseline_step_time)
        restore = policy.restore_time
    else:
        lost = first_failure
        restore = 0.0

    return ElasticReplanReport(
        failed_devices=failed,
        old_p=p,
        new_p=new_p,
        strategy=result.strategy,
        healthy_step_time=degraded.baseline_step_time,
        degraded_step_time=degraded.step_time,
        replanned_step_time=replanned.step_time,
        restore_time=restore,
        lost_work=lost,
        resilience=resilience,
    )
