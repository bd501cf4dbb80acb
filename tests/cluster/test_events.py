"""Tests for the list-scheduling event engine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.events import ListScheduler
from repro.cluster.trace import busy_time_by_kind, utilization
from repro.core.exceptions import SimulationError


def t(kind="w", label="t", res=(("gpu", 0),), dur=1.0, deps=()):
    """One task's `ListScheduler.append` arguments."""
    return kind, label, res, dur, tuple(deps)


def run(s):
    done = s.schedule()
    return done.makespan, done.trace()


class TestScheduler:
    def test_empty(self):
        assert run(ListScheduler()) == (0.0, [])

    def test_serialization_on_shared_resource(self):
        s = ListScheduler()
        s.append(*t(dur=2.0))
        s.append(*t(dur=3.0))
        makespan, _ = run(s)
        assert makespan == pytest.approx(5.0)

    def test_parallel_on_distinct_resources(self):
        s = ListScheduler()
        s.append(*t(dur=2.0, res=(("gpu", 0),)))
        s.append(*t(dur=3.0, res=(("gpu", 1),)))
        makespan, _ = run(s)
        assert makespan == pytest.approx(3.0)

    def test_dependencies_respected(self):
        s = ListScheduler()
        a = s.append(*t(dur=2.0, res=(("gpu", 0),)))
        s.append(*t(dur=1.0, res=(("gpu", 1),), deps=[a]))
        makespan, trace = run(s)
        assert makespan == pytest.approx(3.0)
        by_tid = {r.tid: r for r in trace}
        assert by_tid[1].start == pytest.approx(2.0)

    def test_multi_resource_task_blocks_both(self):
        s = ListScheduler()
        s.append(*t(dur=2.0, res=(("nic", 0), ("nic", 1))))
        s.append(*t(dur=1.0, res=(("nic", 1),)))
        makespan, _ = run(s)
        assert makespan == pytest.approx(3.0)

    def test_overlap_comm_compute(self):
        """Distinct resource classes run concurrently — the mechanism that
        hides gradient sync behind backward compute."""
        s = ListScheduler()
        a = s.append(*t(dur=1.0, res=(("gpu", 0),)))
        s.append(*t(kind="sync", dur=5.0, res=(("nic", 0),), deps=[a]))
        s.append(*t(dur=4.0, res=(("gpu", 0),), deps=[a]))
        makespan, _ = run(s)
        assert makespan == pytest.approx(6.0)  # not 10

    def test_unknown_dep_rejected(self):
        s = ListScheduler()
        with pytest.raises(SimulationError):
            s.append(*t(deps=[5]))

    def test_negative_duration_rejected(self):
        s = ListScheduler()
        with pytest.raises(SimulationError):
            s.append(*t(dur=-1.0))

    def test_zero_duration_ok(self):
        s = ListScheduler()
        s.append(*t(dur=0.0))
        assert run(s)[0] == 0.0

    def test_trace_complete(self):
        s = ListScheduler()
        for _ in range(5):
            s.append(*t())
        makespan, trace = run(s)
        assert len(trace) == 5
        assert makespan == pytest.approx(5.0)

    def test_earliest_ready_priority(self):
        """A task that becomes ready earlier is scheduled first on a
        contended resource."""
        s = ListScheduler()
        a = s.append(*t(dur=1.0, res=(("gpu", 1),)))
        late = s.append(*t(dur=10.0, res=(("gpu", 0),), deps=[a]))
        early = s.append(*t(dur=1.0, res=(("gpu", 0),)))
        _, trace = run(s)
        by_tid = {r.tid: r for r in trace}
        assert by_tid[early].start < by_tid[late].start


@st.composite
def task_dags(draw):
    """Random tasks over a few kinds and resources; deps point backwards."""
    tasks = []
    for tid in range(draw(st.integers(1, 25))):
        res = draw(st.lists(st.tuples(st.sampled_from(["gpu", "tx", "rx"]),
                                      st.integers(0, 3)),
                            min_size=1, max_size=2, unique=True))
        deps = draw(st.lists(st.integers(0, tid - 1), max_size=3)) \
            if tid else []
        tasks.append((draw(st.sampled_from(["fwd", "bwd", "xfer"])),
                      f"t{tid}", tuple(res), draw(st.floats(0.0, 3.0)),
                      tuple(deps)))
    return tasks


class TestSchedule:
    @settings(max_examples=50, deadline=None)
    @given(task_dags())
    def test_summaries_equal_trace_summaries(self, tasks):
        """The store's summaries add durations in commit order, exactly
        as the trace functions do over the records."""
        s = ListScheduler()
        for task in tasks:
            s.append(*task)
        done = s.schedule()
        trace = done.trace()
        assert [r.tid for r in trace] == done.order
        assert done.busy_by_kind() == busy_time_by_kind(trace)
        assert done.utilization() == utilization(trace, done.makespan)
        assert run(s) == (done.makespan, trace)
        assert [(s.kinds[i], s.labels[i], s.resource_keys(i), s.durations[i],
                 s.deps[i]) for i in range(len(s))] == tasks
