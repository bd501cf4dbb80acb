"""A list-scheduling discrete-event engine.

Tasks form a DAG; each task occupies one or more *resources* (per-device
compute streams, per-device NICs) for its whole duration.  The scheduler
releases tasks as their dependencies finish and commits them in
earliest-ready order, serializing tasks that share a resource — the
standard list-scheduling approximation of a real runtime's stream queues.
Communication/computation overlap falls out naturally because NICs and
compute streams are distinct resources.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from ..core.exceptions import SimulationError
from .trace import TraceRecord

__all__ = ["Task", "ListScheduler"]


@dataclass
class Task:
    """One schedulable unit of work.

    Attributes
    ----------
    tid:
        Unique integer id (assigned by the scheduler on add).
    kind:
        Category tag (``"fwd"``, ``"bwd"``, ``"xfer"``, ``"reduce"``,
        ``"gradsync"``, ``"halo"``); used by traces and reports.
    label:
        Human-readable description (node name etc.).
    resources:
        Resource keys this task occupies, e.g. ``("gpu", 3)``/``("nic", 3)``.
    duration:
        Busy seconds.
    deps:
        Ids of tasks that must finish first.
    """

    kind: str
    label: str
    resources: tuple[tuple[str, int], ...]
    duration: float
    deps: tuple[int, ...] = ()
    tid: int = -1


@dataclass
class ListScheduler:
    """Greedy earliest-ready list scheduler over shared resources."""

    tasks: list[Task] = field(default_factory=list)

    def add(self, task: Task) -> int:
        """Register a task; returns its id (usable as a dependency)."""
        task.tid = len(self.tasks)
        if task.duration < 0:
            raise SimulationError(f"task {task.label!r} has negative duration")
        for dep in task.deps:
            if not 0 <= dep < task.tid:
                raise SimulationError(
                    f"task {task.label!r} depends on unknown/future task {dep}")
        self.tasks.append(task)
        return task.tid

    def run(self, faults=None) -> tuple[float, list[TraceRecord]]:
        """Schedule everything; returns (makespan, per-task trace).

        ``faults``, when given, is a perturbation hook with an
        ``apply(task, start, duration) -> (start, duration)`` method
        (see `repro.resilience.faults.FaultInjector`) called once per
        task right before it is committed — fail-stop blackouts push the
        start, stragglers/degraded links/transient retries stretch the
        duration.  Running with ``faults=None`` is the healthy baseline.
        """
        n = len(self.tasks)
        if n == 0:
            return 0.0, []
        indeg = [len(t.deps) for t in self.tasks]
        dependents: list[list[int]] = [[] for _ in range(n)]
        for t in self.tasks:
            for dep in t.deps:
                dependents[dep].append(t.tid)

        resource_free: dict[tuple[str, int], float] = {}
        ready_at = [0.0] * n
        trace: list[TraceRecord] = []
        # Heap of (ready_time, tid) for tasks whose deps are all done.
        heap: list[tuple[float, int]] = [
            (0.0, t.tid) for t in self.tasks if indeg[t.tid] == 0
        ]
        heapq.heapify(heap)
        done = 0
        makespan = 0.0
        while heap:
            ready, tid = heapq.heappop(heap)
            task = self.tasks[tid]
            start = ready
            for r in task.resources:
                start = max(start, resource_free.get(r, 0.0))
            duration = task.duration
            if faults is not None:
                start, duration = faults.apply(task, start, duration)
            end = start + duration
            for r in task.resources:
                resource_free[r] = end
            makespan = max(makespan, end)
            trace.append(TraceRecord(tid=tid, kind=task.kind, label=task.label,
                                     resources=task.resources, start=start, end=end))
            done += 1
            for nxt in dependents[tid]:
                indeg[nxt] -= 1
                ready_at[nxt] = max(ready_at[nxt], end)
                if indeg[nxt] == 0:
                    heapq.heappush(heap, (ready_at[nxt], nxt))
        if done != n:
            raise SimulationError("task graph contains a dependency cycle")
        return makespan, trace
