"""Tests for trace records and utilization summaries."""

import signal

import pytest

from repro.cluster.trace import TraceRecord, busy_time_by_kind, utilization


def rec(tid=0, kind="fwd", start=0.0, end=1.0, res=(("gpu", 0),)):
    return TraceRecord(tid=tid, kind=kind, label="t", resources=res,
                       start=start, end=end)


class TestTrace:
    def test_duration(self):
        assert rec(start=1.0, end=3.5).duration == 2.5

    def test_utilization(self):
        trace = [rec(0, start=0, end=2), rec(1, start=2, end=4,
                                             res=(("gpu", 1),))]
        u = utilization(trace, 4.0)
        assert u[("gpu", 0)] == pytest.approx(0.5)
        assert u[("gpu", 1)] == pytest.approx(0.5)

    def test_utilization_clipped(self):
        u = utilization([rec(start=0, end=10)], 5.0)
        assert u[("gpu", 0)] == 1.0

    def test_utilization_zero_makespan(self):
        assert utilization([rec(start=0, end=0)], 0.0) == {("gpu", 0): 0.0}

    def test_busy_by_kind(self):
        trace = [rec(0, kind="fwd", end=2), rec(1, kind="bwd", end=3),
                 rec(2, kind="fwd", start=2, end=3)]
        busy = busy_time_by_kind(trace)
        assert busy == {"bwd": 3.0, "fwd": 3.0}


class TestCriticalPath:
    def test_empty(self):
        from repro.cluster import critical_path
        assert critical_path([]) == []

    def test_serial_chain(self):
        from repro.cluster import critical_path
        trace = [rec(0, start=0, end=1), rec(1, start=1, end=3),
                 rec(2, start=3, end=4)]
        chain = critical_path(trace)
        assert [r.tid for r in chain] == [0, 1, 2]

    def test_parallel_branch_excluded(self):
        from repro.cluster import critical_path
        trace = [rec(0, start=0, end=1),
                 rec(1, start=0, end=0.5, res=(("gpu", 1),)),
                 rec(2, start=1, end=2)]
        chain = critical_path(trace)
        assert 1 not in [r.tid for r in chain]

    def test_zero_duration_records_do_not_loop(self):
        """Two zero-duration records on one resource, ending where the
        walk stands, used to make it bounce between them forever."""
        from repro.cluster import critical_path

        def timeout(signum, frame):
            raise TimeoutError("critical_path did not return")

        a = rec(0, start=0.0, end=1.0, res=(("gpu", 1),))
        z1 = rec(1, start=1.0, end=1.0)
        z2 = rec(2, start=1.0, end=1.0)
        e = rec(3, start=1.0, end=2.0)
        old = signal.signal(signal.SIGALRM, timeout)
        signal.alarm(10)
        try:
            chain = critical_path([a, z1, z2, e])
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, old)
        assert [r.tid for r in chain] == [0, 2, 1, 3]

    def test_explains_simulated_step(self):
        from repro.baselines import data_parallel_strategy
        from repro.cluster import critical_path_by_kind, simulate_step
        from repro.core.machine import RTX2080TI
        from repro.models import mlp as mk
        g = mk(batch=32, hidden=(1024,), classes=512)
        rep = simulate_step(g, data_parallel_strategy(g, 8), RTX2080TI, 8,
                            keep_trace=True)
        by_kind = critical_path_by_kind(rep.trace)
        # The sync-bound step is explained by gradsync on the path.
        assert by_kind.get("gradsync", 0.0) > by_kind.get("fwd", 0.0)
        assert sum(by_kind.values()) <= rep.step_time * 1.001
