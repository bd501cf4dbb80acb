"""Discrete-event multi-node GPU cluster simulator.

This package is the stand-in for the paper's physical testbeds (8-GPU
1080Ti and 2080Ti nodes over InfiniBand, running Mesh-TensorFlow): it
executes a parallelized computation graph — forward, backward, gradient
synchronization — over per-device compute and NIC resources with
hierarchical link bandwidths, *allowing communication/computation overlap*
(which the analytic cost model deliberately ignores).  Figure 6's measured
speedups are regenerated on top of it.
"""

from .topology import ClusterTopology
from .collectives import group_bottleneck_bws, ring_allreduce_times
from .events import ListScheduler
from .simulator import SimulationReport, simulate_step
from .trace import (TraceRecord, critical_path, critical_path_by_kind,
                    render_gantt, utilization)

__all__ = [
    "ClusterTopology",
    "ListScheduler",
    "SimulationReport",
    "TraceRecord",
    "render_gantt",
    "critical_path",
    "critical_path_by_kind",
    "group_bottleneck_bws",
    "ring_allreduce_times",
    "simulate_step",
    "utilization",
]
