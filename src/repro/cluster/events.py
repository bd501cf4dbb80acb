"""A list-scheduling discrete-event engine.

Tasks form a DAG; each task occupies one or more *resources* (per-device
compute streams, per-device NICs) for its whole duration.  The scheduler
releases tasks as their dependencies finish and commits them in
earliest-ready order, serializing tasks that share a resource — the
standard list-scheduling approximation of a real runtime's stream queues.
Communication/computation overlap falls out naturally because NICs and
compute streams are distinct resources.

A training step has ~10^4–10^5 tasks, so the scheduler stores them as
parallel lists indexed by task id rather than as one object each, and a
run records only the commit order and each task's interval.
`TraceRecord`s are built on request, by `Schedule.trace`.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from dataclasses import dataclass

from ..core.exceptions import SimulationError
from .trace import TraceRecord

__all__ = ["ListScheduler", "Schedule"]


class ListScheduler:
    """Greedy earliest-ready list scheduler over shared resources.

    Task ``t`` is index ``t`` of :attr:`kinds`, :attr:`labels`,
    :attr:`slots`, :attr:`durations`, :attr:`deps` and
    :attr:`dependents`.  A slot is an index into :attr:`resources`, the
    resource keys in order of first use.
    """

    def __init__(self) -> None:
        self.kinds: list[str] = []
        self.labels: list[str] = []
        self.slots: list[tuple[int, ...]] = []
        self.durations: list[float] = []
        self.deps: list[tuple[int, ...]] = []
        self.dependents: list[list[int]] = []
        self.resources: list[tuple[str, int]] = []
        self._slot_of: dict[tuple[str, int], int] = {}
        self._slots_of: dict[tuple[tuple[str, int], ...], tuple[int, ...]] = {}

    def __len__(self) -> int:
        return len(self.kinds)

    def append(self, kind: str, label: str,
               resources: tuple[tuple[str, int], ...], duration: float,
               deps: tuple[int, ...] = ()) -> int:
        """Register a task; returns its id (usable as a dependency).

        ``kind`` tags it for traces and reports (``"fwd"``, ``"bwd"``,
        ``"xfer"``, ``"reduce"``, ``"gradsync"``, ...), ``label`` names
        it, ``resources`` are the keys it occupies (``("gpu", 3)``,
        ``("nic", 3)``) for ``duration`` busy seconds, and ``deps`` are
        the ids of tasks that must finish first.
        """
        tid = len(self.kinds)
        if duration < 0:
            raise SimulationError(f"task {label!r} has negative duration")
        for dep in deps:
            if not 0 <= dep < tid:
                raise SimulationError(
                    f"task {label!r} depends on unknown/future task {dep}")
        for dep in deps:
            self.dependents[dep].append(tid)
        slots = self._slots_of.get(resources)
        if slots is None:
            slots = self._slots_of[resources] = tuple(
                self._slot(r) for r in resources)
        self.kinds.append(kind)
        self.labels.append(label)
        self.slots.append(slots)
        self.durations.append(duration)
        self.deps.append(tuple(deps))
        self.dependents.append([])
        return tid

    def _slot(self, resource: tuple[str, int]) -> int:
        slot = self._slot_of.get(resource)
        if slot is None:
            slot = self._slot_of[resource] = len(self.resources)
            self.resources.append(resource)
        return slot

    def resource_keys(self, tid: int) -> tuple[tuple[str, int], ...]:
        return tuple(self.resources[s] for s in self.slots[tid])

    def schedule(self, faults=None) -> "Schedule":
        """Commit every task in earliest-ready order (ties by task id).

        ``faults``, when given, is a perturbation hook with an
        ``apply(kind, label, resources, start, duration) -> (start,
        duration)`` method (see `repro.resilience.faults.FaultInjector`)
        called once per task right before it is committed — fail-stop
        blackouts push the start, stragglers/degraded links/transient
        retries stretch the duration.  Running with ``faults=None`` is
        the healthy baseline.
        """
        n = len(self.kinds)
        slots, durations, dependents = self.slots, self.durations, self.dependents
        indeg = [len(d) for d in self.deps]
        free = [0.0] * len(self.resources)
        ready_at = [0.0] * n
        order: list[int] = []
        starts: list[float] = []
        ends: list[float] = []
        # Heap of (ready_time, tid) for tasks whose deps are all done.
        heap = [(0.0, tid) for tid in range(n) if not indeg[tid]]
        heapq.heapify(heap)
        heappop, heappush = heapq.heappop, heapq.heappush
        makespan = 0.0
        while heap:
            ready, tid = heappop(heap)
            start = ready
            for s in slots[tid]:
                if free[s] > start:
                    start = free[s]
            duration = durations[tid]
            if faults is not None:
                start, duration = faults.apply(
                    self.kinds[tid], self.labels[tid],
                    self.resource_keys(tid), start, duration)
            end = start + duration
            for s in slots[tid]:
                free[s] = end
            if end > makespan:
                makespan = end
            order.append(tid)
            starts.append(start)
            ends.append(end)
            for nxt in dependents[tid]:
                indeg[nxt] -= 1
                if end > ready_at[nxt]:
                    ready_at[nxt] = end
                if not indeg[nxt]:
                    heappush(heap, (ready_at[nxt], nxt))
        if len(order) != n:
            raise SimulationError("task graph contains a dependency cycle")
        return Schedule(self, makespan, order, starts, ends)


@dataclass
class Schedule:
    """One `ListScheduler` run: the tasks in commit order, each with its
    committed ``[start, end)`` interval.

    The summaries add ``end - start`` per task in commit order, so they
    equal `trace.busy_time_by_kind` and `trace.utilization` over
    :meth:`trace` bit for bit without building the records.
    """

    sched: ListScheduler
    makespan: float
    order: list[int]
    starts: list[float]
    ends: list[float]

    def trace(self) -> list[TraceRecord]:
        """One `TraceRecord` per task, in commit order."""
        sched = self.sched
        return [TraceRecord(tid=tid, kind=sched.kinds[tid],
                            label=sched.labels[tid],
                            resources=sched.resource_keys(tid),
                            start=start, end=end)
                for tid, start, end in zip(self.order, self.starts, self.ends)]

    def busy_by_kind(self) -> dict[str, float]:
        """Task-seconds per task kind."""
        kinds = self.sched.kinds
        out: dict[str, float] = defaultdict(float)
        for tid, start, end in zip(self.order, self.starts, self.ends):
            out[kinds[tid]] += end - start
        return dict(sorted(out.items()))

    def utilization(self) -> dict[tuple[str, int], float]:
        """Busy fraction per resource over the makespan."""
        slots = self.sched.slots
        busy = [0.0] * len(self.sched.resources)
        for tid, start, end in zip(self.order, self.starts, self.ends):
            duration = end - start
            for s in slots[tid]:
                busy[s] += duration
        makespan = self.makespan
        return {r: min(1.0, t / makespan) if makespan > 0 else 0.0
                for r, t in sorted(zip(self.sched.resources, busy))}
