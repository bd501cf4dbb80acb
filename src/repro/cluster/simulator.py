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

The DAG is built in per-layer blocks of numpy arrays, not one call per
task: each node adds its forward and its backward phase as a few
`ListScheduler.add` calls (the transfers of each edge, halos, compute,
each collective), and the members of one all-reduce group share one
dependency list.  Task ids follow the per-shard order written out in
``tests/cluster/reference.py``, so schedules, trace records and fault
events match that reference bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..assignment.greedy import Placement, edge_overlaps, greedy_placement
from ..core.costmodel import CostModel
from ..core.exceptions import SimulationError
from ..core.graph import CompGraph
from ..core.machine import MachineSpec
from ..core.strategy import Strategy
from ..core.tensors import DTYPE_BYTES
from ..ops.base import OpSpec
from .collectives import ring_allreduce_times
from .events import ListScheduler
from .topology import ClusterTopology
from .trace import TraceRecord

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


def _grid_groups(config: tuple[int, ...],
                 varying: frozenset[int]) -> np.ndarray:
    """``[G, m]`` shard indices: the shards that differ only along the
    ``varying`` dims, one group per row.

    A node's shards are the row-major grid of its configuration
    (`shard_indices`), so ordering the groups by their ravelled
    coordinates on the other dims orders them by their lowest shard, and
    each row's members ascend.
    """
    kept = [i for i in range(len(config)) if i not in varying]
    moved = sorted(varying)
    return np.arange(math.prod(config)).reshape(config).transpose(
        kept + moved).reshape(-1, math.prod(config[i] for i in moved))


def _replica_dims(op: OpSpec, spec) -> frozenset[int]:
    """The dims no axis of tensor ``spec`` resolves to: shards that
    differ only along them hold the same block (`tensor_blocks`).

    Two shards that differ on another dim can hold equal blocks only
    when both are empty, and an empty block overlaps nothing.
    """
    kept = {op.dim_index(primary) for primary in
            map(op.resolve_dim, spec.axes) if primary is not None}
    return frozenset(range(op.rank)) - kept


def _pick_holders(ov: np.ndarray, groups: np.ndarray,
                  src_devs: np.ndarray, dst_devs: np.ndarray,
                  bandwidths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The source shard each destination reads each distinct block from.

    ``ov`` is the ``[P_dst, P_src]`` overlap matrix, ``groups`` the
    ``[G, m]`` source shards holding identical blocks (`_replica_dims`)
    and ``bandwidths`` the topology's ``[p, p]`` link matrix.  Of each
    group with a nonzero overlap, the pick is a holder on the
    destination's own device first, then the holder on the fastest link,
    then the lowest shard index.  Returns ``(rows, picks)``, one entry
    per (destination, overlapping group), in destination order and then
    group order.
    """
    # Score each (destination, holder) pair by its link bandwidth, inf
    # when local and -1 for non-holders; a group's pick is its first
    # maximum in shard order.
    score = np.where(ov[:, groups] > 0,
                     bandwidths[src_devs[groups], dst_devs[:, None, None]],
                     -1.0)
    rows, cols = np.nonzero(score.max(axis=2) >= 0.0)
    return rows, groups[cols, score.argmax(axis=2)[rows, cols]]


def _csr(n: int, rows: list[np.ndarray],
         ids: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Per-row lists, in CSR form, of the (row, task id) entries given as
    parallel arrays; a row keeps its entries' order."""
    ptr = np.zeros(n + 1, dtype=np.int64)
    if not rows:
        return ptr, ptr[:0]
    rows_all = np.concatenate(rows)
    np.cumsum(np.bincount(rows_all, minlength=n), out=ptr[1:])
    return ptr, np.concatenate(ids)[np.argsort(rows_all, kind="stable")]


def _group_deps(ready: np.ndarray,
                groups: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One dependency list per group row: its members' ``ready`` tasks."""
    m = groups.shape[1]
    return (np.arange(groups.shape[0] + 1, dtype=np.int64) * m,
            np.sort(ready[groups], axis=1).ravel())


def _single_config(cfg: tuple[int, ...]) -> np.ndarray:
    return np.asarray(cfg, dtype=np.int64).reshape(1, -1)


class _StepBuilder:
    """Accumulates the task DAG for one training step.

    Each node adds its forward and its backward phase as a few blocks
    (`ListScheduler.add`): one per in-edge (or out-edge) for the
    transfers, then halos, compute, and every collective with the
    members of each group sharing one dependency list.  Task ids follow
    the order of the per-shard rules written out in
    ``tests/cluster/reference.py``.
    """

    def __init__(self, graph: CompGraph, strategy: Strategy,
                 placement: Placement, topo: ClusterTopology) -> None:
        self.graph = graph
        self.strategy = strategy
        self.placement = placement
        self.topo = topo
        self.p = topo.p
        self.flops_rate = topo.machine.peak_flops * DEFAULT_COMPUTE_EFFICIENCY
        # Slot d is device d's compute stream, p + d its NIC's sending
        # side and 2p + d its receiving side.
        self.sched = ListScheduler([(res, d) for res in ("gpu", "tx", "rx")
                                    for d in range(topo.p)])
        # Per node: task id whose completion makes each shard's output
        # (fwd) / input-gradient (bwd) available.
        self.fwd_ready: dict[str, np.ndarray] = {}
        self.bwd_ready: dict[str, np.ndarray] = {}
        # Per edge: (overlap, consumer block groups) from the forward pass,
        # for the backward pass to reuse.
        self.overlaps: dict = {}
        self.order = graph.topological_order()

    # -- helpers -----------------------------------------------------------

    def _gather_transfers(self, ov: np.ndarray, src_groups: np.ndarray,
                          src_devs: np.ndarray, dst_devs: np.ndarray,
                          ready: np.ndarray, label: str,
                          ) -> tuple[np.ndarray, np.ndarray]:
        """Add the transfers moving overlapped bytes to each dst shard.

        Returns the (destination shard, task id) entries its compute
        task must wait for: the transfers, and the ready tasks of the
        local picks.  Replicated source blocks are collapsed to one
        holder each (`_pick_holders`), and every remote pick is one
        transfer: a node's shards sit on distinct devices, so no two
        picks of one destination share a source device.  Transfers are
        added per destination in shard order, then in group order.
        """
        p = self.p
        rows, picks = _pick_holders(ov, src_groups, src_devs, dst_devs,
                                    self.topo.bandwidths)
        src = src_devs[picks]
        local = src == dst_devs[rows]
        if local.all():
            return rows, ready[picks]
        remote = ~local
        t_rows, t_picks, t_src = rows[remote], picks[remote], src[remote]
        t_dst = dst_devs[t_rows]
        k = t_rows.shape[0]
        tid = self.sched.add(
            "xfer", (f"{label}->dev", ""), t_dst,
            (p + t_src, 2 * p + t_dst),
            ov[t_rows, t_picks] * DTYPE_BYTES
            / self.topo.bandwidths[t_src, t_dst],
            np.arange(k + 1, dtype=np.int64), ready[t_picks])
        return (np.concatenate([rows[local], t_rows]),
                np.concatenate([ready[picks[local]], tid + np.arange(k)]))

    def _compute(self, op: OpSpec, devs: np.ndarray, phase: str,
                 duration: float, rows: list[np.ndarray],
                 ids: list[np.ndarray]) -> np.ndarray:
        """Add the halo exchanges (when the op has them) and the compute
        tasks of one phase; returns the compute task ids."""
        n = devs.shape[0]
        shard = np.arange(n)
        name = op.name
        halo_bytes = float(op.extra_comm_bytes(
            _single_config(self.strategy[name]))[0]) / 2.0
        if halo_bytes > 0 and n >= 2:
            # Each shard swaps its boundary with the next shard's device.
            peer = np.concatenate((devs[1:], devs[:1]))
            halo = self.sched.add(
                "halo", (f"{phase}-halo {name}[", "]"), shard,
                (self.p + devs, 2 * self.p + devs),
                halo_bytes / self.topo.bandwidths[devs, peer],
                *_csr(n, rows, ids))
            rows = rows + [shard]
            ids = ids + [halo + shard]
        first = self.sched.add(phase, (f"{phase} {name}[", "]"), shard, devs,
                               duration, *_csr(n, rows, ids))
        return first + shard

    def _collective(self, kind: str, name: str, devs: np.ndarray,
                    groups: np.ndarray, nbytes: float,
                    ready: np.ndarray) -> np.ndarray:
        """Add one ring all-reduce per group row, one NIC task per member,
        released together once every member's ``ready`` task is done;
        returns the task ids in row-major member order."""
        members = groups.ravel()
        gdevs = devs[groups]
        first = self.sched.add(
            kind, (f"{kind} {name}[", "]"), members,
            (self.p + devs[members], 2 * self.p + devs[members]),
            np.repeat(ring_allreduce_times(self.topo, nbytes, gdevs),
                      groups.shape[1]),
            *_group_deps(ready, groups), group=groups.shape[1])
        return first + np.arange(members.shape[0])

    # -- forward ---------------------------------------------------------------

    def build_forward(self) -> None:
        for name in self.order:
            op = self.graph.node(name)
            cfg = self.strategy[name]
            devs = self.placement.devices[name]
            fwd_time = op.fwd_flops / devs.shape[0] / self.flops_rate

            rows: list[np.ndarray] = []
            ids: list[np.ndarray] = []
            for e in self.graph.in_edges(name):
                ov = (self.placement.overlaps.get(e)
                      or edge_overlaps(self.graph, self.strategy,
                                       self.placement.shards, e))[0]
                src_op = self.graph.node(e.src)
                self.overlaps[e] = ov, _grid_groups(
                    cfg, _replica_dims(op, op.inputs[e.dst_port]))
                r, i = self._gather_transfers(
                    ov, _grid_groups(self.strategy[e.src], _replica_dims(
                        src_op, src_op.outputs[e.src_port])),
                    self.placement.devices[e.src], devs,
                    self.fwd_ready[e.src], f"fwd {e.src}->{name}")
                rows.append(r)
                ids.append(i)
            ready = self._compute(op, devs, "fwd", fwd_time, rows, ids)

            # Partial-sum all-reduce over reduction-dim splits.
            groups = _grid_groups(
                cfg, frozenset(map(op.dim_index, op.reduction_dims)))
            if groups.shape[1] > 1 and op.outputs:
                out_bytes = float(op.primary_output.shard_volume(
                    op, _single_config(cfg))[0]) * DTYPE_BYTES
                ready[groups.ravel()] = self._collective(
                    "reduce", name, devs, groups, out_bytes, ready)
            self.fwd_ready[name] = ready

    # -- backward -----------------------------------------------------------------

    def build_backward(self) -> None:
        for name in reversed(self.order):
            op = self.graph.node(name)
            cfg = self.strategy[name]
            devs = self.placement.devices[name]
            n = devs.shape[0]
            bwd_time = max(op.flops - op.fwd_flops, 0.0) / n / self.flops_rate

            rows: list[np.ndarray] = []
            ids: list[np.ndarray] = []
            out_edges = self.graph.out_edges(name)
            if not out_edges:
                # Loss nodes: backward starts once their forward is done.
                rows.append(np.arange(n))
                ids.append(self.fwd_ready[name])
            for e in out_edges:
                # Gradients flow consumer -> producer with the same block
                # overlaps, but every consumer contributes (sum), so only
                # consumer-side replicas are deduplicated.
                ov, dst_groups = self.overlaps[e]
                r, i = self._gather_transfers(
                    ov.T, dst_groups, self.placement.devices[e.dst], devs,
                    self.bwd_ready[e.dst], f"bwd {e.dst}->{name}")
                rows.append(r)
                ids.append(i)
            ready = self._compute(op, devs, "bwd", bwd_time, rows, ids)
            self.bwd_ready[name] = ready

            # Parameter-gradient all-reduce across replication groups;
            # overlaps with the rest of the backward pass (NIC resource).
            sync_rows: list[np.ndarray] = []
            sync_ids: list[np.ndarray] = []
            param_shard_volume = 0.0
            for spec in op.inputs.values():
                if not spec.is_param:
                    continue
                param_shard_volume += float(
                    spec.shard_volume(op, _single_config(cfg))[0])
                # The replicas of a parameter shard sync its gradient.
                groups = _grid_groups(cfg, _replica_dims(op, spec))
                if groups.shape[1] < 2:
                    continue
                w_bytes = float(spec.grad_sync_volume(op, _single_config(cfg))[0]) \
                    * DTYPE_BYTES
                sync_rows.append(groups.ravel())
                sync_ids.append(self._collective("gradsync", name, devs,
                                                 groups, w_bytes, ready))

            # Update phase: each device applies the optimizer to the
            # parameter shards it holds, once its gradients are combined.
            if param_shard_volume > 0:
                upd_time = param_shard_volume \
                    * CostModel.UPDATE_FLOPS_PER_PARAM \
                    / self.flops_rate
                if not sync_rows:
                    sync_rows, sync_ids = [np.arange(n)], [ready]
                self.sched.add("update", (f"update {name}[", "]"),
                               np.arange(n), devs, upd_time,
                               *_csr(n, sync_rows, sync_ids))
        self.overlaps.clear()


def simulate_step(
    graph: CompGraph,
    strategy: Strategy,
    machine: MachineSpec,
    p: int,
    *,
    placement: Placement | None = None,
    batch: int | None = None,
    keep_trace: bool = False,
    faults=None,
) -> SimulationReport:
    """Simulate one training step; see module docstring.

    Parameters
    ----------
    placement:
        Shard-to-device map; defaults to the greedy locality placement.
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

    builder = _StepBuilder(graph, strategy, placement, topo)
    builder.build_forward()
    builder.build_backward()
    done = builder.sched.schedule()
    if done.makespan <= 0:
        raise SimulationError("simulated step has zero duration")

    baseline = None
    fault_events: list = []
    if faults is not None and not faults.is_empty():
        from ..resilience.faults import FaultInjector

        baseline = done.makespan
        injector = FaultInjector(faults.resolve(baseline), p)
        done = builder.sched.schedule(faults=injector)
        fault_events = injector.events

    return SimulationReport(
        step_time=done.makespan,
        throughput=batch / done.makespan,
        batch=batch,
        p=p,
        machine=machine.name,
        task_count=len(builder.sched),
        busy_by_kind=done.busy_by_kind(),
        device_utilization=done.utilization(),
        trace=done.trace() if keep_trace else [],
        baseline_step_time=baseline,
        fault_events=fault_events,
    )
