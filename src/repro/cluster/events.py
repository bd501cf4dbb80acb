"""A list-scheduling discrete-event engine.

Tasks form a DAG; each task occupies one or two *resources* (per-device
compute streams, per-device NICs) for its whole duration.  The scheduler
releases tasks as their dependencies finish and commits them in
earliest-ready order, serializing tasks that share a resource — the
standard list-scheduling approximation of a real runtime's stream queues.
Communication/computation overlap falls out naturally because NICs and
compute streams are distinct resources.

A training step has ~10^4–10^5 tasks, so the scheduler takes them in
*blocks* of numpy arrays — one block per layer and phase, say — and a
run records only the commit order and each task's interval.  The tasks
of a block may share dependency lists in *groups* of consecutive tasks,
the members of one collective: a group's producers are counted once, and
the last of them to finish releases every member.  Labels are formatted,
and `TraceRecord`s built, only on request (`Schedule.trace`, or a fault
plan that names the tasks it perturbs).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from ..core.exceptions import SimulationError
from .trace import TraceRecord

__all__ = ["Block", "ListScheduler", "Schedule"]


class Block(NamedTuple):
    """``n`` tasks of one kind, added together (see `ListScheduler.add`).

    Task ``i`` of the block is labelled ``label[0] + str(tags[i]) +
    label[1]`` and occupies the resources ``slot0[i]`` and ``slot1[i]``
    (a one-resource task repeats its slot) for ``durations[i]`` seconds.
    Its tasks form ``n // group`` groups of ``group`` consecutive tasks,
    and group ``g`` waits for the tasks ``deps[dep_ptr[g]:dep_ptr[g +
    1]]``, in CSR form.
    """

    kind: str
    label: tuple[str, str]
    tags: np.ndarray
    slot0: np.ndarray
    slot1: np.ndarray
    durations: np.ndarray
    dep_ptr: np.ndarray
    deps: np.ndarray
    group: int


def _label(label: tuple[str, str], tag) -> str:
    return f"{label[0]}{tag}{label[1]}"


class ListScheduler:
    """Greedy earliest-ready list scheduler over shared resources.

    A slot is an index into :attr:`resources`, the resource keys
    (``("gpu", 3)``, ``("tx", 3)``) the tasks may occupy.  Tasks are
    numbered in the order they are added, one block after another.  A
    group of tasks that share one dependency list is one *unit*, and so
    is every other task; a unit is named by its first task.
    """

    def __init__(self, resources: Sequence[tuple[str, int]]) -> None:
        self.resources: list[tuple[str, int]] = list(resources)
        self.blocks: list[Block] = []
        self._n = 0
        self._arrays: _Arrays | None = None

    def __len__(self) -> int:
        return self._n

    def add(self, kind: str, label: tuple[str, str], tags, slots,
            durations, dep_ptr=None, deps=None, *, group: int = 1) -> int:
        """Add a block of tasks; returns the first task's id.

        ``kind`` tags the tasks for traces and reports (``"fwd"``,
        ``"bwd"``, ``"xfer"``, ``"reduce"``, ``"gradsync"``, ...).
        ``tags`` is ``[n]`` ints.  ``slots`` is one ``[n]`` array of
        slot ids for one-resource tasks, or a pair of them.
        ``durations`` is ``[n]`` busy seconds or one for all.
        ``dep_ptr``/``deps`` give each group of ``group`` consecutive
        tasks its dependencies; every one must be a task of an earlier
        block.  Without them no task waits.
        """
        tags = np.asarray(tags, dtype=np.int64)
        n = tags.shape[0]
        first = self._n
        if not n:
            return first
        slot0, slot1 = (slots, slots) if isinstance(slots, np.ndarray) \
            else slots
        durations = np.asarray(durations, dtype=np.float64)
        if durations.ndim == 0:
            durations = np.full(n, durations)
        if dep_ptr is None:
            dep_ptr = np.zeros(n // group + 1, dtype=np.int64)
            deps = dep_ptr[:0]
        if n % group or slot0.shape != (n,) or slot1.shape != (n,) \
                or durations.shape != (n,) \
                or dep_ptr.shape != (n // group + 1,) \
                or dep_ptr[0] != 0 or dep_ptr[-1] != deps.shape[0]:
            raise SimulationError(f"malformed {kind!r} block of {n} tasks")
        if durations.min() < 0:
            i = int(np.argmin(durations))
            raise SimulationError(
                f"task {_label(label, tags[i])!r} has negative duration")
        if deps.size and (deps.min() < 0 or deps.max() >= first):
            k = int(np.flatnonzero((deps < 0) | (deps >= first))[0])
            g = int(np.searchsorted(dep_ptr, k, side="right")) - 1
            raise SimulationError(
                f"task {_label(label, tags[g * group])!r} depends on "
                f"unknown/future task {int(deps[k])}")
        self.blocks.append(Block(kind, label, tags, slot0, slot1, durations,
                                 dep_ptr, deps, group))
        self._n += n
        self._arrays = None
        return first

    def labels(self) -> list[str]:
        """Every task's label, by task id."""
        out: list[str] = []
        for b in self.blocks:
            head, tail = b.label
            out += [f"{head}{tag}{tail}" for tag in b.tags.tolist()]
        return out

    def kinds(self) -> list[str]:
        """Every task's kind, by task id."""
        out: list[str] = []
        for b in self.blocks:
            out += [b.kind] * b.tags.shape[0]
        return out

    def resource_keys(self) -> list[tuple[tuple[str, int], ...]]:
        """Every task's resource keys, by task id."""
        res, arrays = self.resources, self.arrays()
        return [(res[a],) if a == b else (res[a], res[b])
                for a, b in zip(arrays.slot0, arrays.slot1)]

    def arrays(self) -> "_Arrays":
        """The blocks joined into per-task and per-unit arrays."""
        if self._arrays is None:
            self._arrays = _Arrays(self.blocks, self._n, len(self.resources))
        return self._arrays

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
        arrays = self.arrays()
        slot0, slot1, durations = arrays.slot0, arrays.slot1, arrays.durations
        waiters, waiter_ptr, span = arrays.waiters, arrays.waiter_ptr, \
            arrays.span
        # Per unit (by its first task): producers still running, and the
        # latest end among those done.
        indeg = arrays.indegree.tolist()
        ready_at = [0.0] * self._n
        free = [0.0] * len(self.resources)
        if faults is not None:
            kinds, labels = self.kinds(), self.labels()
            keys = self.resource_keys()
        order: list[int] = []
        starts: list[float] = []
        ends: list[float] = []
        # Heap of (ready_time, tid) for tasks whose deps are all done.
        heap = [(0.0, tid) for tid in arrays.sources]
        heappop, heappush = heapq.heappop, heapq.heappush
        makespan = 0.0
        while heap:
            ready, tid = heappop(heap)
            a = slot0[tid]
            b = slot1[tid]
            start = ready
            if free[a] > start:
                start = free[a]
            if free[b] > start:
                start = free[b]
            duration = durations[tid]
            if faults is not None:
                start, duration = faults.apply(
                    kinds[tid], labels[tid], keys[tid], start, duration)
            end = start + duration
            free[a] = end
            free[b] = end
            if end > makespan:
                makespan = end
            order.append(tid)
            starts.append(start)
            ends.append(end)
            for unit in waiters[waiter_ptr[tid]:waiter_ptr[tid + 1]]:
                indeg[unit] -= 1
                if end > ready_at[unit]:
                    ready_at[unit] = end
                if not indeg[unit]:
                    # The last producer releases every member at once.
                    ready = ready_at[unit]
                    heappush(heap, (ready, unit))
                    if span[unit]:
                        for nxt in range(unit + 1, unit + 1 + span[unit]):
                            heappush(heap, (ready, nxt))
        if len(order) != self._n:
            raise SimulationError("task graph contains a dependency cycle")
        return Schedule(self, makespan, order, starts, ends)


class _Arrays:
    """A scheduler's blocks joined for one or more runs.

    Per task, as Python lists: :attr:`slot0`, :attr:`slot1` and
    :attr:`durations`; as arrays: :attr:`kind_codes` (into
    :attr:`kind_names`) and, at each unit's first task, its
    :attr:`indegree` and :attr:`span` (members after the first).  Per
    unit, in task order: :attr:`unit_first` and its dependencies
    :attr:`deps`, in CSR form with :attr:`dep_ptr`.  The units waiting
    for task ``t``, by first task and in task order, are
    ``waiters[waiter_ptr[t]:waiter_ptr[t + 1]]``; :attr:`sources` are
    the tasks that wait for nothing.
    """

    def __init__(self, blocks: list[Block], n: int, n_slots: int) -> None:
        cat = np.concatenate
        empty = np.zeros(0, dtype=np.int64)
        sizes = [b.tags.shape[0] for b in blocks]
        slot0 = cat([b.slot0 for b in blocks]) if blocks else empty
        slot1 = cat([b.slot1 for b in blocks]) if blocks else empty
        if n and (min(slot0.min(), slot1.min()) < 0
                  or max(slot0.max(), slot1.max()) >= n_slots):
            raise SimulationError(f"task uses a slot outside 0..{n_slots - 1}")
        self.slots = np.stack([slot0, slot1], axis=1)
        self.slot0, self.slot1 = slot0.tolist(), slot1.tolist()
        self.durations = (cat([b.durations for b in blocks]).tolist()
                          if blocks else [])
        names: dict[str, int] = {}
        codes = [names.setdefault(b.kind, len(names)) for b in blocks]
        self.kind_names = list(names)
        self.kind_codes = np.repeat(np.asarray(codes, dtype=np.int64), sizes)

        # Units: each block's groups, in task order.
        unit_size = np.repeat(
            np.asarray([b.group for b in blocks], dtype=np.int64),
            [size // b.group for b, size in zip(blocks, sizes)])
        self.unit_first = np.zeros(unit_size.shape[0], dtype=np.int64)
        np.cumsum(unit_size[:-1], out=self.unit_first[1:])
        # One difference over every block's pointers, less the steps
        # from one block's last pointer to the next block's first.
        ends = np.cumsum([b.dep_ptr.shape[0] for b in blocks], dtype=np.int64)
        unit_indeg = np.delete(np.diff(cat([b.dep_ptr for b in blocks]
                                           + [empty])), ends[:-1] - 1)
        self.deps = cat([b.deps for b in blocks] + [empty])
        self.dep_ptr = np.zeros(unit_indeg.shape[0] + 1, dtype=np.int64)
        np.cumsum(unit_indeg, out=self.dep_ptr[1:])
        self.indegree = np.zeros(n, dtype=np.int64)
        self.indegree[self.unit_first] = unit_indeg
        span = np.zeros(n, dtype=np.int64)
        span[self.unit_first] = unit_size - 1
        self.span = span.tolist()
        self.sources = np.flatnonzero(
            np.repeat(unit_indeg == 0, unit_size)).tolist()

        # Every dependency entry's unit, grouped by the task it names; a
        # stable sort keeps each task's waiters in unit order.
        unit_of = np.repeat(self.unit_first, unit_indeg)
        self.waiters = unit_of[np.argsort(self.deps, kind="stable")].tolist()
        waiter_ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(self.deps, minlength=n), out=waiter_ptr[1:])
        self.waiter_ptr = waiter_ptr.tolist()


@dataclass
class Schedule:
    """One `ListScheduler` run: the tasks in commit order, each with its
    committed ``[start, end)`` interval.

    The summaries add ``end - start`` per task in commit order
    (`numpy.bincount` adds its weights in input order), so they equal
    `trace.busy_time_by_kind` and `trace.utilization` over :meth:`trace`
    bit for bit without building the records.
    """

    sched: ListScheduler
    makespan: float
    order: list[int]
    starts: list[float]
    ends: list[float]

    def trace(self) -> list[TraceRecord]:
        """One `TraceRecord` per task, in commit order."""
        sched = self.sched
        kinds, labels = sched.kinds(), sched.labels()
        keys = sched.resource_keys()
        return [TraceRecord(tid=tid, kind=kinds[tid], label=labels[tid],
                            resources=keys[tid], start=start, end=end)
                for tid, start, end in zip(self.order, self.starts, self.ends)]

    @cached_property
    def _spans(self) -> tuple[np.ndarray, np.ndarray]:
        """The task ids in commit order, and their busy seconds."""
        return (np.asarray(self.order, dtype=np.int64),
                np.subtract(self.ends, self.starts))

    def busy_by_kind(self) -> dict[str, float]:
        """Task-seconds per task kind."""
        arrays = self.sched.arrays()
        order, spans = self._spans
        busy = np.bincount(arrays.kind_codes[order], weights=spans,
                           minlength=len(arrays.kind_names))
        return dict(sorted(zip(arrays.kind_names, busy.tolist())))

    def utilization(self) -> dict[tuple[str, int], float]:
        """Busy fraction per resource over the makespan."""
        order, spans = self._spans
        # Each task's slots in commit order, a repeated slot once.
        pairs = self.sched.arrays().slots[order]
        once = np.ones(pairs.shape, dtype=bool)
        once[:, 1] = pairs[:, 1] != pairs[:, 0]
        used = pairs[once]
        n_res = len(self.sched.resources)
        busy = np.bincount(used, weights=np.repeat(spans, 2)[once.ravel()],
                           minlength=n_res).tolist()
        held = np.bincount(used, minlength=n_res).tolist()
        makespan = self.makespan
        return {r: min(1.0, t / makespan) if makespan > 0 else 0.0
                for r, t, k in sorted(zip(self.sched.resources, busy, held))
                if k}
