"""Execute one training step of a parallelized graph on a simulated cluster.

For a given (graph, strategy, placement, machine) this builds the full
task DAG of a training step —

* forward compute per shard, with inter-layer transfers assembled from
  block overlaps (preferring local/intra-node copies, as the greedy
  placement intends),
* partial-sum all-reduces where configurations split contracted dims,
* backward compute with mirrored gradient transfers,
* parameter-gradient all-reduces across replication groups (which overlap
  with the remaining backward compute, exactly the effect the analytic
  cost model ignores and the paper's Mesh-TensorFlow runs exploit),
* operator-specific extra communication (convolution halos, recurrent
  boundary handoffs),

— and schedules it on per-device compute and NIC resources.  The makespan
is the step time; throughput is ``batch / step_time``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..assignment.blocks import block_overlap, tensor_blocks
from ..assignment.greedy import Placement, greedy_placement
from ..core.costmodel import CostModel
from ..core.exceptions import SimulationError
from ..core.graph import CompGraph
from ..core.machine import MachineSpec
from ..core.strategy import Strategy
from ..core.tensors import DTYPE_BYTES
from ..ops.base import OpSpec
from .collectives import ring_allreduce_time
from .events import ListScheduler, Task
from .topology import ClusterTopology
from .trace import TraceRecord, busy_time_by_kind, utilization

__all__ = ["SimulationReport", "simulate_step"]

#: Fraction of peak FLOPS a training kernel typically achieves.
DEFAULT_COMPUTE_EFFICIENCY = 0.35


@dataclass
class SimulationReport:
    """Outcome of one simulated training step.

    When the step ran under a fault plan, ``baseline_step_time`` holds
    the fault-free makespan of the same task DAG and ``fault_events``
    the perturbations applied (see `repro.resilience.faults`).
    """

    step_time: float
    throughput: float
    batch: int
    p: int
    machine: str
    task_count: int
    busy_by_kind: dict[str, float]
    device_utilization: dict[tuple[str, int], float]
    trace: list[TraceRecord] = field(default_factory=list, repr=False)
    baseline_step_time: float | None = None
    fault_events: list = field(default_factory=list, repr=False)

    @property
    def fault_slowdown(self) -> float:
        """Faulted over fault-free step time (1.0 for healthy runs)."""
        if not self.baseline_step_time:
            return 1.0
        return self.step_time / self.baseline_step_time

    def summary(self) -> str:
        busy = ", ".join(f"{k}={v:.3g}s" for k, v in self.busy_by_kind.items())
        text = (f"{self.machine} p={self.p}: step={self.step_time * 1e3:.2f} ms, "
                f"{self.throughput:.1f} samples/s ({busy})")
        if self.baseline_step_time is not None:
            text += (f" [faulted: {self.fault_slowdown:.2f}x over "
                     f"{self.baseline_step_time * 1e3:.2f} ms healthy, "
                     f"{len(self.fault_events)} fault events]")
        return text


def _infer_batch(graph: CompGraph) -> int:
    for op in graph:
        if op.has_dim("b") and op.resolve_dim("b") == "b":
            return op.dim_size("b")
    raise SimulationError("no node with a batch dim 'b'; pass batch explicitly")


def _distinct_blocks(blocks: np.ndarray) -> list[tuple[int, list[int]]]:
    """Group shard indices by identical block intervals.

    Returns ``(representative, members)`` per distinct block — replicas
    (e.g. reduction-split copies) collapse into one group.
    """
    groups: dict[bytes, list[int]] = {}
    for j in range(blocks.shape[0]):
        groups.setdefault(blocks[j].tobytes(), []).append(j)
    return [(members[0], members) for members in groups.values()]


def _shard_groups(shards: np.ndarray, varying: list[int]) -> list[list[int]]:
    """Group shard row indices by their coordinates on the non-``varying``
    dims; members of a group differ only along ``varying`` dims."""
    if shards.shape[1] == 0:
        return [list(range(shards.shape[0]))]
    keep = [i for i in range(shards.shape[1]) if i not in varying]
    keys = shards[:, keep] if keep else np.zeros((shards.shape[0], 0), dtype=np.int64)
    groups: dict[bytes, list[int]] = {}
    for j in range(shards.shape[0]):
        groups.setdefault(keys[j].tobytes(), []).append(j)
    return list(groups.values())


def _single_config(cfg: tuple[int, ...]) -> np.ndarray:
    return np.asarray(cfg, dtype=np.int64).reshape(1, -1)


class _StepBuilder:
    """Accumulates the task DAG for one training step."""

    def __init__(self, graph: CompGraph, strategy: Strategy,
                 placement: Placement, topo: ClusterTopology,
                 efficiency: float) -> None:
        self.graph = graph
        self.strategy = strategy
        self.placement = placement
        self.topo = topo
        self.flops_rate = topo.machine.peak_flops * efficiency
        self.sched = ListScheduler()
        # Per node: task id whose completion makes each shard's output
        # (fwd) / input-gradient (bwd) available.
        self.fwd_ready: dict[str, list[int]] = {}
        self.bwd_ready: dict[str, list[int]] = {}
        self.order = graph.topological_order()

    # -- helpers -----------------------------------------------------------

    def _edge_overlaps(self, e) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(overlap [P_dst, P_src], src blocks, dst blocks) for an edge."""
        src_op = self.graph.node(e.src)
        dst_op = self.graph.node(e.dst)
        src_blocks = tensor_blocks(src_op, src_op.outputs[e.src_port],
                                   self.strategy[e.src],
                                   self.placement.shards[e.src])
        dst_blocks = tensor_blocks(dst_op, dst_op.inputs[e.dst_port],
                                   self.strategy[e.dst],
                                   self.placement.shards[e.dst])
        ov = block_overlap(dst_blocks, src_blocks)
        return ov, src_blocks, dst_blocks

    def _pick_source(self, holders: list[int], src_devs: np.ndarray,
                     dst_dev: int) -> int:
        """Prefer a local holder, then fastest link, then lowest device."""
        best, best_bw = holders[0], -1.0
        for j in holders:
            d = int(src_devs[j])
            if d == dst_dev:
                return j
            bw = self.topo.bandwidth(d, dst_dev)
            if bw > best_bw:
                best, best_bw = j, bw
        return best

    def _gather_transfers(self, ov: np.ndarray, src_blocks: np.ndarray,
                          src_devs: np.ndarray, dst_devs: np.ndarray,
                          ready: list[int], kind: str, label: str,
                          dedup_src: bool) -> list[list[int]]:
        """Create transfer tasks moving overlapped bytes to each dst shard.

        Returns, per destination shard, the dependency ids its compute
        task must wait for (transfer tasks plus local producers' ready
        tasks).  ``dedup_src=True`` collapses replicated source blocks and
        picks the best-placed copy (forward activations); ``False`` keeps
        every source (backward gradients, which sum over consumers).
        """
        if dedup_src:
            src_groups = _distinct_blocks(src_blocks)
        else:
            src_groups = [(j, [j]) for j in range(src_blocks.shape[0])]
        deps_per_dst: list[list[int]] = []
        for i in range(ov.shape[0]):
            dst_dev = int(dst_devs[i])
            bytes_by_src: dict[int, float] = {}
            dep_by_src: dict[int, set[int]] = {}
            local_deps: set[int] = set()
            for _, members in src_groups:
                holders = [j for j in members if ov[i, j] > 0]
                if not holders:
                    continue
                j = self._pick_source(holders, src_devs, dst_dev)
                src_dev = int(src_devs[j])
                if src_dev == dst_dev:
                    local_deps.add(ready[j])
                else:
                    nbytes = float(ov[i, j]) * DTYPE_BYTES
                    bytes_by_src[src_dev] = bytes_by_src.get(src_dev, 0.0) + nbytes
                    dep_by_src.setdefault(src_dev, set()).add(ready[j])
            deps = list(local_deps)
            for src_dev, nbytes in bytes_by_src.items():
                t = self.sched.add(Task(
                    kind=kind,
                    label=f"{label}->dev{dst_dev}",
                    resources=(("tx", src_dev), ("rx", dst_dev)),
                    duration=self.topo.transfer_time(nbytes, src_dev, dst_dev),
                    deps=tuple(sorted(dep_by_src[src_dev])),
                ))
                deps.append(t)
            deps_per_dst.append(deps)
        return deps_per_dst

    def _extra_comm_tasks(self, op: OpSpec, cfg: tuple[int, ...],
                          devs: np.ndarray, deps: list[list[int]],
                          phase: str) -> list[int | None]:
        """Halo/handoff NIC tasks per shard; None when the op has none."""
        per_dev_bytes = float(op.extra_comm_bytes(_single_config(cfg))[0]) / 2.0
        n = devs.shape[0]
        if per_dev_bytes <= 0 or n < 2:
            return [None] * n
        tasks: list[int | None] = []
        for s in range(n):
            peer = int(devs[(s + 1) % n])
            dur = self.topo.transfer_time(per_dev_bytes, int(devs[s]), peer)
            tasks.append(self.sched.add(Task(
                kind="halo",
                label=f"{phase}-halo {op.name}[{s}]",
                resources=(("tx", int(devs[s])), ("rx", int(devs[s]))),
                duration=dur,
                deps=tuple(deps[s]),
            )))
        return tasks

    # -- forward ---------------------------------------------------------------

    def build_forward(self) -> None:
        for name in self.order:
            op = self.graph.node(name)
            cfg = self.strategy[name]
            shards = self.placement.shards[name]
            devs = self.placement.devices[name]
            n = shards.shape[0]
            fwd_time = op.fwd_flops / n / self.flops_rate

            deps: list[list[int]] = [[] for _ in range(n)]
            for e in self.graph.in_edges(name):
                ov, src_blocks, _ = self._edge_overlaps(e)
                edge_deps = self._gather_transfers(
                    ov, src_blocks, self.placement.devices[e.src], devs,
                    self.fwd_ready[e.src], "xfer", f"fwd {e.src}->{name}",
                    dedup_src=True)
                for i in range(n):
                    deps[i].extend(edge_deps[i])

            halos = self._extra_comm_tasks(op, cfg, devs, deps, "fwd")
            ready: list[int] = []
            for s in range(n):
                d = tuple(sorted(set(deps[s]) | ({halos[s]} if halos[s] is not None else set())))
                ready.append(self.sched.add(Task(
                    kind="fwd", label=f"fwd {name}[{s}]",
                    resources=(("gpu", int(devs[s])),),
                    duration=fwd_time, deps=d)))

            # Partial-sum all-reduce over reduction-dim splits.
            red_idx = [op.dim_index(r) for r in op.reduction_dims]
            m = int(np.prod([cfg[i] for i in red_idx], dtype=np.int64)) if red_idx else 1
            if m > 1 and op.outputs:
                out_bytes = float(op.primary_output.shard_volume(
                    op, _single_config(cfg))[0]) * DTYPE_BYTES
                for group in _shard_groups(shards, red_idx):
                    if len(group) < 2:
                        continue
                    gdevs = [int(devs[s]) for s in group]
                    dur = ring_allreduce_time(self.topo, out_bytes, gdevs)
                    gdeps = tuple(sorted(ready[s] for s in group))
                    for s in group:
                        ready[s] = self.sched.add(Task(
                            kind="reduce", label=f"reduce {name}[{s}]",
                            resources=(("tx", int(devs[s])), ("rx", int(devs[s]))),
                            duration=dur, deps=gdeps))
            self.fwd_ready[name] = ready

    # -- backward -----------------------------------------------------------------

    def build_backward(self) -> None:
        for name in reversed(self.order):
            op = self.graph.node(name)
            cfg = self.strategy[name]
            shards = self.placement.shards[name]
            devs = self.placement.devices[name]
            n = shards.shape[0]
            bwd_time = max(op.flops - op.fwd_flops, 0.0) / n / self.flops_rate

            deps: list[list[int]] = [[] for _ in range(n)]
            out_edges = self.graph.out_edges(name)
            if not out_edges:
                # Loss nodes: backward starts once their forward is done.
                for s in range(n):
                    deps[s].append(self.fwd_ready[name][s])
            for e in out_edges:
                # Gradients flow consumer -> producer with the same block
                # overlaps, but every consumer contributes (sum), so only
                # consumer-side replicas are deduplicated.
                ov, _, dst_blocks = self._edge_overlaps(e)
                edge_deps = self._gather_transfers(
                    ov.T, dst_blocks, self.placement.devices[e.dst], devs,
                    self.bwd_ready[e.dst], "xfer", f"bwd {e.dst}->{name}",
                    dedup_src=True)
                for s in range(n):
                    deps[s].extend(edge_deps[s])

            halos = self._extra_comm_tasks(op, cfg, devs, deps, "bwd")
            ready: list[int] = []
            for s in range(n):
                d = set(deps[s])
                if halos[s] is not None:
                    d.add(halos[s])
                ready.append(self.sched.add(Task(
                    kind="bwd", label=f"bwd {name}[{s}]",
                    resources=(("gpu", int(devs[s])),),
                    duration=bwd_time, deps=tuple(sorted(d)))))
            self.bwd_ready[name] = ready

            # Parameter-gradient all-reduce across replication groups;
            # overlaps with the rest of the backward pass (NIC resource).
            sync_of_shard: list[list[int]] = [[] for _ in range(n)]
            param_shard_volume = 0.0
            for spec in op.inputs.values():
                if not spec.is_param:
                    continue
                param_shard_volume += float(
                    spec.shard_volume(op, _single_config(cfg))[0])
                covered = {op.resolve_dim(a) for a in spec.axes} - {None}
                varying = [i for i, dim in enumerate(op.dims)
                           if dim.name not in covered]
                rho = int(np.prod([cfg[i] for i in varying], dtype=np.int64)) \
                    if varying else 1
                if rho < 2:
                    continue
                w_bytes = float(spec.grad_sync_volume(op, _single_config(cfg))[0]) \
                    * DTYPE_BYTES
                for group in _shard_groups(shards, varying):
                    if len(group) < 2:
                        continue
                    gdevs = [int(devs[s]) for s in group]
                    dur = ring_allreduce_time(self.topo, w_bytes, gdevs)
                    gdeps = tuple(sorted(ready[s] for s in group))
                    for s in group:
                        sync_of_shard[s].append(self.sched.add(Task(
                            kind="gradsync", label=f"gradsync {name}[{s}]",
                            resources=(("tx", int(devs[s])), ("rx", int(devs[s]))),
                            duration=dur, deps=gdeps)))

            # Update phase: each device applies the optimizer to the
            # parameter shards it holds, once its gradients are combined.
            if param_shard_volume > 0:
                upd_time = param_shard_volume \
                    * CostModel.UPDATE_FLOPS_PER_PARAM \
                    / self.flops_rate
                for s in range(n):
                    d = tuple(sorted(sync_of_shard[s])) if sync_of_shard[s] \
                        else (ready[s],)
                    self.sched.add(Task(
                        kind="update", label=f"update {name}[{s}]",
                        resources=(("gpu", int(devs[s])),),
                        duration=upd_time, deps=d))


def simulate_step(
    graph: CompGraph,
    strategy: Strategy,
    machine: MachineSpec,
    p: int,
    *,
    placement: Placement | None = None,
    efficiency: float = DEFAULT_COMPUTE_EFFICIENCY,
    batch: int | None = None,
    keep_trace: bool = False,
    faults=None,
) -> SimulationReport:
    """Simulate one training step; see module docstring.

    Parameters
    ----------
    placement:
        Shard-to-device map; defaults to the greedy locality placement.
    efficiency:
        Achieved fraction of peak FLOPS for compute kernels.
    batch:
        Global batch size for throughput; inferred from the graph's batch
        dim when omitted.
    keep_trace:
        Retain the full per-task trace in the report (large).
    faults:
        Optional `repro.resilience.faults.FaultPlan`.  The step is first
        scheduled fault-free (fixing the baseline makespan that relative
        fault times resolve against), then re-scheduled with the plan's
        perturbations injected; the report carries both makespans plus
        the applied fault events.
    """
    strategy.validate(graph, p)
    if placement is None:
        placement = greedy_placement(graph, strategy, p)
    placement.validate(graph)
    topo = ClusterTopology(machine, p)
    batch = batch if batch is not None else _infer_batch(graph)

    builder = _StepBuilder(graph, strategy, placement, topo, efficiency)
    builder.build_forward()
    builder.build_backward()
    makespan, trace = builder.sched.run()
    if makespan <= 0:
        raise SimulationError("simulated step has zero duration")

    baseline = None
    fault_events: list = []
    if faults is not None and not faults.is_empty():
        from ..resilience.faults import FaultInjector

        baseline = makespan
        injector = FaultInjector(faults.resolve(baseline), p)
        makespan, trace = builder.sched.run(faults=injector)
        fault_events = injector.events

    return SimulationReport(
        step_time=makespan,
        throughput=batch / makespan,
        batch=batch,
        p=p,
        machine=machine.name,
        task_count=len(builder.sched.tasks),
        busy_by_kind=busy_time_by_kind(trace),
        device_utilization=utilization(trace, makespan),
        trace=trace if keep_trace else [],
        baseline_step_time=baseline,
        fault_events=fault_events,
    )
