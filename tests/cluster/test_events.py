"""Tests for the list-scheduling event engine."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.events import ListScheduler
from repro.cluster.trace import busy_time_by_kind, utilization
from repro.core.exceptions import SimulationError
from tests.cluster.reference import RefScheduler

#: The resources every test scheduler offers, slot by slot.
RESOURCES = [(kind, dev) for kind in ("gpu", "nic", "tx", "rx")
             for dev in range(4)]
SLOT = {r: i for i, r in enumerate(RESOURCES)}


def add(s, kind="w", label="t", res=(("gpu", 0),), dur=1.0, deps=()):
    """Add one task, as a block of one, labelled ``label`` plus its
    would-be id; returns its id."""
    slots = [np.array([SLOT[r]]) for r in res]
    return s.add(kind, (label, ""), [len(s)],
                 slots[0] if len(slots) == 1 else tuple(slots), dur,
                 np.array([0, len(deps)]), np.asarray(deps, dtype=np.int64))


def run(s):
    done = s.schedule()
    return done.makespan, done.trace()


class TestScheduler:
    def test_empty(self):
        assert run(ListScheduler(RESOURCES)) == (0.0, [])

    def test_serialization_on_shared_resource(self):
        s = ListScheduler(RESOURCES)
        add(s, dur=2.0)
        add(s, dur=3.0)
        makespan, _ = run(s)
        assert makespan == pytest.approx(5.0)

    def test_parallel_on_distinct_resources(self):
        s = ListScheduler(RESOURCES)
        add(s, dur=2.0, res=(("gpu", 0),))
        add(s, dur=3.0, res=(("gpu", 1),))
        makespan, _ = run(s)
        assert makespan == pytest.approx(3.0)

    def test_dependencies_respected(self):
        s = ListScheduler(RESOURCES)
        a = add(s, dur=2.0, res=(("gpu", 0),))
        add(s, dur=1.0, res=(("gpu", 1),), deps=[a])
        makespan, trace = run(s)
        assert makespan == pytest.approx(3.0)
        by_tid = {r.tid: r for r in trace}
        assert by_tid[1].start == pytest.approx(2.0)

    def test_multi_resource_task_blocks_both(self):
        s = ListScheduler(RESOURCES)
        add(s, dur=2.0, res=(("nic", 0), ("nic", 1)))
        add(s, dur=1.0, res=(("nic", 1),))
        makespan, _ = run(s)
        assert makespan == pytest.approx(3.0)

    def test_overlap_comm_compute(self):
        """Distinct resource classes run concurrently — the mechanism that
        hides gradient sync behind backward compute."""
        s = ListScheduler(RESOURCES)
        a = add(s, dur=1.0, res=(("gpu", 0),))
        add(s, kind="sync", dur=5.0, res=(("nic", 0),), deps=[a])
        add(s, dur=4.0, res=(("gpu", 0),), deps=[a])
        makespan, _ = run(s)
        assert makespan == pytest.approx(6.0)  # not 10

    def test_unknown_dep_rejected(self):
        s = ListScheduler(RESOURCES)
        with pytest.raises(SimulationError):
            add(s, deps=[5])

    def test_negative_duration_rejected(self):
        s = ListScheduler(RESOURCES)
        with pytest.raises(SimulationError):
            add(s, dur=-1.0)

    def test_zero_duration_ok(self):
        s = ListScheduler(RESOURCES)
        add(s, dur=0.0)
        assert run(s)[0] == 0.0

    def test_trace_complete(self):
        s = ListScheduler(RESOURCES)
        for _ in range(5):
            add(s)
        makespan, trace = run(s)
        assert len(trace) == 5
        assert makespan == pytest.approx(5.0)

    def test_earliest_ready_priority(self):
        """A task that becomes ready earlier is scheduled first on a
        contended resource."""
        s = ListScheduler(RESOURCES)
        a = add(s, dur=1.0, res=(("gpu", 1),))
        late = add(s, dur=10.0, res=(("gpu", 0),), deps=[a])
        early = add(s, dur=1.0, res=(("gpu", 0),))
        _, trace = run(s)
        by_tid = {r.tid: r for r in trace}
        assert by_tid[early].start < by_tid[late].start


@st.composite
def task_blocks(draw):
    """Random blocks over a few kinds and resources.  A block's tasks
    share one dependency list per group of ``group`` consecutive tasks,
    and every dependency is a task of an earlier block, some named more
    than once.

    Returns the block arguments of `ListScheduler.add` and, per task,
    (kind, label, resource keys, duration, deps).
    """
    blocks, tasks = [], []
    for _ in range(draw(st.integers(1, 8))):
        first = len(tasks)
        group = draw(st.integers(1, 3))
        n = group * draw(st.integers(1, 3))
        kind = draw(st.sampled_from(["fwd", "bwd", "xfer", "gradsync"]))
        res = [tuple(draw(st.lists(
            st.tuples(st.sampled_from(["gpu", "tx", "rx"]),
                      st.integers(0, 3)),
            min_size=1, max_size=2, unique=True))) for _ in range(n)]
        durations = [draw(st.floats(0.0, 3.0)) for _ in range(n)]
        deps = [tuple(draw(st.lists(st.integers(0, first - 1), max_size=3)))
                if first else () for _ in range(n // group)]
        slot0 = np.array([SLOT[r[0]] for r in res])
        slot1 = np.array([SLOT[r[-1]] for r in res])
        blocks.append((kind, ("t", ""), np.arange(first, first + n),
                       (slot0, slot1), np.array(durations),
                       np.cumsum([0] + [len(d) for d in deps]),
                       np.array(sum(deps, ()), dtype=np.int64), group))
        tasks += [(kind, f"t{first + i}", r, d, deps[i // group])
                  for i, (r, d) in enumerate(zip(res, durations))]
    return blocks, tasks


class TestSchedule:
    @settings(max_examples=50, deadline=None)
    @given(task_blocks())
    def test_summaries_equal_trace_summaries(self, drawn):
        """The store's summaries add durations in commit order, exactly
        as the trace functions do over the records; and a group released
        at once commits as its members would one task at a time."""
        blocks, tasks = drawn
        s = ListScheduler(RESOURCES)
        for *args, group in blocks:
            s.add(*args, group=group)
        done = s.schedule()
        trace = done.trace()
        assert [r.tid for r in trace] == done.order
        assert done.busy_by_kind() == busy_time_by_kind(trace)
        assert done.utilization() == utilization(trace, done.makespan)
        assert run(s) == (done.makespan, trace)
        arrays = s.arrays()
        unit = np.searchsorted(arrays.unit_first, np.arange(len(s)),
                               side="right") - 1
        deps = [tuple(arrays.deps[arrays.dep_ptr[u]:
                                  arrays.dep_ptr[u + 1]].tolist())
                for u in unit.tolist()]
        assert list(zip(s.kinds(), s.labels(), s.resource_keys(),
                        arrays.durations, deps)) == tasks
        ref = RefScheduler()
        for task in tasks:
            ref.append(*task)
        assert ref.schedule() == (done.makespan, done.order, done.starts,
                                  done.ends)
