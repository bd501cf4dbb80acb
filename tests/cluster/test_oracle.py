"""The block-built step DAG against the per-task reference.

For random DAGs under random valid strategies and device maps, on
clusters of 1-3 nodes with and without peer-to-peer links, the
simulator's `_StepBuilder` must add the same tasks as
``reference.RefStepBuilder`` (kind, label, resources, duration bits and
dependency set, in the same id order), and `ListScheduler`, which
releases each collective group at once, must commit them in the same
order over the same intervals as ``reference.RefScheduler``, healthy and
under a plan with all four fault classes.
"""

import itertools
import math
from dataclasses import dataclass, fields

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.assignment.greedy import Placement, greedy_placement
from repro.assignment.blocks import shard_indices
from repro.cluster.simulator import _StepBuilder
from repro.cluster.topology import ClusterTopology
from repro.core.graph import CompGraph
from repro.core.machine import MachineSpec
from repro.core.strategy import Strategy
from repro.ops.base import OpSpec
from repro.resilience import (
    DeviceFailure,
    FaultInjector,
    FaultPlan,
    LinkDegradation,
    Straggler,
    TransientFaults,
)
from tests.cluster.reference import RefStepBuilder
from tests.conftest import build_dag


@dataclass(frozen=True)
class HaloOp(OpSpec):
    """A test op whose shards swap boundary rows when ``m`` is split."""

    def extra_comm_bytes(self, configs: np.ndarray) -> np.ndarray:
        configs = np.asarray(configs)
        return np.where(configs[..., 1] > 1, 96.0, 0.0)


def configs(op: OpSpec, p: int) -> list[tuple[int, ...]]:
    return [cfg for cfg in itertools.product(
        *(range(1, dim.size + 1) for dim in op.dims)) if math.prod(cfg) <= p]


@st.composite
def steps(draw):
    """(graph, strategy, placement, topology) of a random step."""
    per_node = draw(st.integers(1, 4))
    p = per_node * draw(st.integers(1, 3))
    machine = MachineSpec(
        "t", peak_flops=1e12,
        intra_node_bw=draw(st.sampled_from([4e9, 10e9, 20e9])),
        inter_node_bw=10e9, devices_per_node=per_node,
        p2p=draw(st.booleans()))
    n = draw(st.integers(1, 5))
    pairs = [(s, d) for s in range(n) for d in range(s + 2, n)]
    extra = draw(st.lists(st.sampled_from(pairs), max_size=3, unique=True)) \
        if pairs else []
    masks = [draw(st.integers(0, (1 << n) - 1)) for _ in range(3)]
    graph = build_dag(n, extra, param_mask=masks[0], reduction_mask=masks[1])
    graph = CompGraph(
        [HaloOp(**{f.name: getattr(op, f.name) for f in fields(OpSpec)})
         if masks[2] >> i & 1 else op for i, op in enumerate(graph)],
        graph.edges)
    strategy = Strategy({op.name: draw(st.sampled_from(configs(op, p)))
                         for op in graph})
    if draw(st.booleans()):
        placement = greedy_placement(graph, strategy, p)
    else:
        shards = {op.name: shard_indices(strategy[op.name]) for op in graph}
        placement = Placement(
            devices={name: np.array(draw(st.permutations(range(p)))
                                    [:idx.shape[0]], dtype=np.int64)
                     for name, idx in shards.items()},
            shards=shards, p=p)
    return graph, strategy, placement, ClusterTopology(machine, p)


def block_tasks(sched) -> list[tuple]:
    arrays = sched.arrays()
    unit = np.searchsorted(arrays.unit_first, np.arange(len(sched)),
                           side="right") - 1
    ptr, deps = arrays.dep_ptr.tolist(), arrays.deps.tolist()
    return list(zip(sched.kinds(), sched.labels(), sched.resource_keys(),
                    [d.hex() for d in arrays.durations],
                    [set(deps[ptr[u]:ptr[u + 1]]) for u in unit.tolist()]))


def ref_tasks(sched) -> list[tuple]:
    return list(zip(sched.kinds, sched.labels, sched.resources,
                    [d.hex() for d in sched.durations],
                    [set(d) for d in sched.deps]))


def fault_plan(p: int, seed: int) -> FaultPlan:
    return FaultPlan(
        device_failures=(DeviceFailure(device=1 % p, time=0.3,
                                       downtime=0.2),),
        stragglers=(Straggler(device=2 % p, slowdown=1.7),),
        link_degradations=(LinkDegradation(device=3 % p, factor=2.5),),
        transients=TransientFaults(probability=0.3, backoff=1e-4,
                                   seed=seed),
        relative_times=True)


class TestOracle:
    @settings(max_examples=150, deadline=None)
    @given(steps(), st.integers(0, 3))
    def test_blocks_and_groups_match_per_task_reference(self, step, seed):
        graph, strategy, placement, topo = step
        builder = _StepBuilder(graph, strategy, placement, topo)
        builder.build_forward()
        builder.build_backward()
        ref = RefStepBuilder(graph, strategy, placement, topo).build()
        assert block_tasks(builder.sched) == ref_tasks(ref.sched)

        done = builder.sched.schedule()
        healthy = ref.sched.schedule()
        assert (done.makespan, done.order, done.starts, done.ends) == healthy

        plan = fault_plan(topo.p, seed).resolve(done.makespan)
        mine, theirs = FaultInjector(plan, topo.p), FaultInjector(plan, topo.p)
        done = builder.sched.schedule(faults=mine)
        assert (done.makespan, done.order, done.starts, done.ends) == \
            ref.sched.schedule(faults=theirs)
        assert mine.events == theirs.events
