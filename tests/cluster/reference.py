"""Per-task reference of the simulator's step DAG and its scheduler.

`RefScheduler` takes one task per `append` call and keeps each task's
own dependency tuple; `RefStepBuilder` adds a training step's tasks one
shard at a time, grouping replicated source blocks and shard groups
with dicts and picking holders element by element.  This is the rule
`repro.cluster.simulator._StepBuilder` builds in per-layer blocks, and
`repro.cluster.events.ListScheduler` schedules with one dependency list
per collective group; ``test_oracle.py`` holds them to it task for task
and interval for interval.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.assignment.greedy import edge_overlaps
from repro.cluster.collectives import RING_CHANNELS
from repro.cluster.simulator import DEFAULT_COMPUTE_EFFICIENCY
from repro.core.costmodel import CostModel
from repro.core.exceptions import SimulationError
from repro.core.tensors import DTYPE_BYTES


class RefScheduler:
    """Earliest-ready list scheduler with one task per `append`."""

    def __init__(self) -> None:
        self.kinds: list[str] = []
        self.labels: list[str] = []
        self.resources: list[tuple[tuple[str, int], ...]] = []
        self.durations: list[float] = []
        self.deps: list[tuple[int, ...]] = []

    def __len__(self) -> int:
        return len(self.kinds)

    def append(self, kind: str, label: str,
               resources: tuple[tuple[str, int], ...], duration: float,
               deps: tuple[int, ...] = ()) -> int:
        tid = len(self.kinds)
        if duration < 0:
            raise SimulationError(f"task {label!r} has negative duration")
        if any(not 0 <= dep < tid for dep in deps):
            raise SimulationError(
                f"task {label!r} depends on unknown/future task")
        self.kinds.append(kind)
        self.labels.append(label)
        self.resources.append(resources)
        self.durations.append(duration)
        self.deps.append(tuple(deps))
        return tid

    def schedule(self, faults=None):
        """``(makespan, order, starts, ends)``, ties broken by task id."""
        n = len(self.kinds)
        dependents: list[list[int]] = [[] for _ in range(n)]
        for tid, deps in enumerate(self.deps):
            for dep in deps:
                dependents[dep].append(tid)
        indeg = [len(d) for d in self.deps]
        free: dict[tuple[str, int], float] = {}
        ready_at = [0.0] * n
        order, starts, ends = [], [], []
        heap = [(0.0, tid) for tid in range(n) if not indeg[tid]]
        heapq.heapify(heap)
        makespan = 0.0
        while heap:
            ready, tid = heapq.heappop(heap)
            start = max([ready] + [free.get(r, 0.0)
                                   for r in self.resources[tid]])
            duration = self.durations[tid]
            if faults is not None:
                start, duration = faults.apply(
                    self.kinds[tid], self.labels[tid], self.resources[tid],
                    start, duration)
            end = start + duration
            for r in self.resources[tid]:
                free[r] = end
            makespan = max(makespan, end)
            order.append(tid)
            starts.append(start)
            ends.append(end)
            for nxt in dependents[tid]:
                indeg[nxt] -= 1
                ready_at[nxt] = max(ready_at[nxt], end)
                if not indeg[nxt]:
                    heapq.heappush(heap, (ready_at[nxt], nxt))
        if len(order) != n:
            raise SimulationError("task graph contains a dependency cycle")
        return makespan, order, starts, ends


def block_groups(blocks: np.ndarray) -> list[list[int]]:
    """Shard indices grouped by identical block intervals, groups in
    order of their lowest shard."""
    groups: dict[bytes, list[int]] = {}
    for j in range(blocks.shape[0]):
        groups.setdefault(blocks[j].tobytes(), []).append(j)
    return list(groups.values())


def pick_holders(ov, src_blocks, src_devs, dst_devs, topo) -> list[list[int]]:
    """Per destination, in group order, the source shard it reads each
    overlapping group of identical blocks from: a holder on its own
    device first, then the holder on the fastest link, then the lowest
    shard index."""
    out = []
    for i in range(ov.shape[0]):
        dst_dev = int(dst_devs[i])
        picks = []
        for members in block_groups(src_blocks):
            holders = [j for j in members if ov[i, j] > 0]
            if not holders:
                continue
            best, best_bw = holders[0], -1.0
            for j in holders:
                d = int(src_devs[j])
                if d == dst_dev:
                    best = j
                    break
                bw = float(topo.bandwidths[d, dst_dev])
                if bw > best_bw:
                    best, best_bw = j, bw
            picks.append(best)
        out.append(picks)
    return out


def transfer_time(topo, nbytes: float, a: int, b: int) -> float:
    """Seconds to move ``nbytes`` from device ``a`` to ``b``: nothing
    when local or empty, else the bytes over the pair's bandwidth."""
    if a == b or nbytes <= 0:
        return 0.0
    return nbytes / float(topo.bandwidths[a, b])


def shard_groups(shards: np.ndarray, varying: list[int]) -> list[list[int]]:
    """Shard rows grouped by their coordinates on the non-``varying``
    dims, groups in order of their lowest shard."""
    keep = [i for i in range(shards.shape[1]) if i not in varying]
    groups: dict[bytes, list[int]] = {}
    for j in range(shards.shape[0]):
        groups.setdefault(shards[j, keep].tobytes(), []).append(j)
    return list(groups.values())


def ring_time(topo, nbytes: float, devices: list[int]) -> float:
    """A ring all-reduce over ``devices``, bound by its slowest link."""
    ring = sorted(set(devices))
    m = len(ring)
    if m < 2 or nbytes <= 0:
        return 0.0
    bw = min(float(topo.bandwidths[a, b])
             for a, b in zip(ring, ring[1:] + ring[:1]))
    return 2.0 * nbytes * (m - 1) / m / bw / RING_CHANNELS


def _one(cfg) -> np.ndarray:
    return np.asarray(cfg, dtype=np.int64).reshape(1, -1)


class RefStepBuilder:
    """One training step's task DAG, one task per `RefScheduler.append`."""

    def __init__(self, graph, strategy, placement, topo) -> None:
        self.graph = graph
        self.strategy = strategy
        self.placement = placement
        self.topo = topo
        self.flops_rate = topo.machine.peak_flops * DEFAULT_COMPUTE_EFFICIENCY
        self.sched = RefScheduler()
        self.fwd_ready: dict[str, list[int]] = {}
        self.bwd_ready: dict[str, list[int]] = {}
        self.overlaps: dict = {}
        self.order = graph.topological_order()

    def build(self) -> "RefStepBuilder":
        self.build_forward()
        self.build_backward()
        return self

    def gather_transfers(self, ov, src_blocks, src_devs, dst_devs, ready,
                         label: str) -> list[list[int]]:
        """Add the transfers into each destination shard; returns, per
        destination, its local producers and its transfers."""
        out = []
        for i, picks in enumerate(pick_holders(ov, src_blocks, src_devs,
                                               dst_devs, self.topo)):
            dst_dev = int(dst_devs[i])
            local: set[int] = set()
            remote: dict[int, list] = {}
            for j in picks:
                src_dev = int(src_devs[j])
                if src_dev == dst_dev:
                    local.add(ready[j])
                    continue
                entry = remote.setdefault(src_dev, [0.0, set()])
                entry[0] += float(ov[i, j]) * DTYPE_BYTES
                entry[1].add(ready[j])
            deps = list(local)
            for src_dev, (nbytes, producers) in remote.items():
                deps.append(self.sched.append(
                    "xfer", f"{label}->dev{dst_dev}",
                    (("tx", src_dev), ("rx", dst_dev)),
                    transfer_time(self.topo, nbytes, src_dev, dst_dev),
                    tuple(sorted(producers))))
            out.append(deps)
        return out

    def halos(self, op, devs, deps, phase: str) -> list[int | None]:
        per_dev = float(op.extra_comm_bytes(
            _one(self.strategy[op.name]))[0]) / 2.0
        n = devs.shape[0]
        if per_dev <= 0 or n < 2:
            return [None] * n
        return [self.sched.append(
            "halo", f"{phase}-halo {op.name}[{s}]",
            (("tx", int(devs[s])), ("rx", int(devs[s]))),
            transfer_time(self.topo, per_dev, int(devs[s]),
                          int(devs[(s + 1) % n])),
            tuple(deps[s])) for s in range(n)]

    def compute(self, op, devs, deps, phase: str, duration: float):
        halos = self.halos(op, devs, deps, phase)
        return [self.sched.append(
            phase, f"{phase} {op.name}[{s}]", (("gpu", int(devs[s])),),
            duration, tuple(sorted(set(deps[s]) | (
                {halos[s]} if halos[s] is not None else set()))))
            for s in range(devs.shape[0])]

    def collective(self, kind: str, name: str, devs, shards, varying,
                   nbytes: float, ready: list[int]) -> dict[int, int]:
        """One all-reduce task per member of every group; returns each
        member's task."""
        out = {}
        for group in shard_groups(shards, varying):
            if len(group) < 2:
                continue
            dur = ring_time(self.topo, nbytes, [int(devs[s]) for s in group])
            deps = tuple(sorted(ready[s] for s in group))
            for s in group:
                out[s] = self.sched.append(
                    kind, f"{kind} {name}[{s}]",
                    (("tx", int(devs[s])), ("rx", int(devs[s]))), dur, deps)
        return out

    def build_forward(self) -> None:
        for name in self.order:
            op = self.graph.node(name)
            cfg = self.strategy[name]
            shards = self.placement.shards[name]
            devs = self.placement.devices[name]
            n = shards.shape[0]
            deps: list[list[int]] = [[] for _ in range(n)]
            for e in self.graph.in_edges(name):
                ov, src_blocks, dst_blocks = edge_overlaps(
                    self.graph, self.strategy, self.placement.shards, e)
                self.overlaps[e] = ov, dst_blocks
                for i, d in enumerate(self.gather_transfers(
                        ov, src_blocks, self.placement.devices[e.src], devs,
                        self.fwd_ready[e.src], f"fwd {e.src}->{name}")):
                    deps[i] += d
            ready = self.compute(op, devs, deps, "fwd",
                                 op.fwd_flops / n / self.flops_rate)
            red_idx = [op.dim_index(r) for r in op.reduction_dims]
            if int(np.prod([cfg[i] for i in red_idx])) > 1 and op.outputs:
                out_bytes = float(op.primary_output.shard_volume(
                    op, _one(cfg))[0]) * DTYPE_BYTES
                for s, tid in self.collective("reduce", name, devs, shards,
                                              red_idx, out_bytes,
                                              ready).items():
                    ready[s] = tid
            self.fwd_ready[name] = ready

    def build_backward(self) -> None:
        for name in reversed(self.order):
            op = self.graph.node(name)
            cfg = self.strategy[name]
            shards = self.placement.shards[name]
            devs = self.placement.devices[name]
            n = shards.shape[0]
            deps: list[list[int]] = [[] for _ in range(n)]
            out_edges = self.graph.out_edges(name)
            if not out_edges:
                for s in range(n):
                    deps[s].append(self.fwd_ready[name][s])
            for e in out_edges:
                ov, dst_blocks = self.overlaps[e]
                for i, d in enumerate(self.gather_transfers(
                        ov.T, dst_blocks, self.placement.devices[e.dst],
                        devs, self.bwd_ready[e.dst], f"bwd {e.dst}->{name}")):
                    deps[i] += d
            ready = self.compute(
                op, devs, deps, "bwd",
                max(op.flops - op.fwd_flops, 0.0) / n / self.flops_rate)
            self.bwd_ready[name] = ready

            syncs: list[list[int]] = [[] for _ in range(n)]
            volume = 0.0
            for spec in op.inputs.values():
                if not spec.is_param:
                    continue
                volume += float(spec.shard_volume(op, _one(cfg))[0])
                covered = {op.resolve_dim(a) for a in spec.axes} - {None}
                varying = [i for i, dim in enumerate(op.dims)
                           if dim.name not in covered]
                if int(np.prod([cfg[i] for i in varying])) < 2:
                    continue
                w_bytes = float(spec.grad_sync_volume(
                    op, _one(cfg))[0]) * DTYPE_BYTES
                for s, tid in self.collective("gradsync", name, devs, shards,
                                              varying, w_bytes,
                                              ready).items():
                    syncs[s].append(tid)
            if volume > 0:
                upd_time = volume * CostModel.UPDATE_FLOPS_PER_PARAM \
                    / self.flops_rate
                for s in range(n):
                    self.sched.append(
                        "update", f"update {name}[{s}]",
                        (("gpu", int(devs[s])),), upd_time,
                        tuple(sorted(syncs[s])) if syncs[s] else (ready[s],))
