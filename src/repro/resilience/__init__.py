"""Fault-tolerant simulation and resilient strategy search.

Two halves:

* **fault-injected simulation** (`faults`, `checkpoint`) — declarative
  `FaultPlan`s (fail-stop, stragglers, link degradation, transient
  collective failures) honored by the cluster scheduler, plus
  checkpoint/restart cost modeling;
* **resilient planning** (`runner`, `replan`) — graceful degradation of
  the DP search under resource pressure, and elastic re-planning on the
  survivor set after device loss.
"""

from .checkpoint import CheckpointPolicy, effective_step_time
from .faults import (
    DeviceFailure,
    FaultEvent,
    FaultInjector,
    FaultPlan,
    LinkDegradation,
    Straggler,
    TransientFaults,
)
from .replan import ElasticReplanReport, elastic_replan
from .runner import (
    AttemptRecord,
    ResilienceReport,
    coarsen_config_space,
    resilient_find_best_strategy,
)

__all__ = [
    "AttemptRecord",
    "CheckpointPolicy",
    "DeviceFailure",
    "ElasticReplanReport",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "LinkDegradation",
    "ResilienceReport",
    "Straggler",
    "TransientFaults",
    "coarsen_config_space",
    "effective_step_time",
    "elastic_replan",
    "resilient_find_best_strategy",
]
