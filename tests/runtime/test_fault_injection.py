"""Fault injection: thread pools that fail to start.

The hardened build must *degrade* — retry, then fall back bit-identically
to the serial path — never crash, never poison the cache, and never hide
that it happened.
"""

import numpy as np
import pytest

from repro.core import costmodel
from repro.core.configs import ConfigSpace
from repro.core.costmodel import CostModel
from repro.core.machine import GTX1080TI
from repro.core.tablecache import TableCache
from repro.runtime import RunContext
from tests.conftest import build_dag

#: Forces the thread backend whatever the core count.
THREADS = RunContext(jobs="threads:2")


def no_thread(*args, **kwargs):
    """What ``Thread.start`` raises when the process is out of threads."""
    raise RuntimeError("can't start new thread")


def make_problem(p: int = 4):
    graph = build_dag(4, [(0, 2), (1, 3)], param_mask=0b1010,
                      reduction_mask=0b0100)
    return graph, ConfigSpace.build(graph, p)


def tables_equal(a, b) -> bool:
    return (set(a.lc) == set(b.lc)
            and set(a.pair_tx) == set(b.pair_tx)
            and all(np.array_equal(a.lc[n], b.lc[n]) for n in a.lc)
            and all(np.array_equal(a.pair_tx[k], b.pair_tx[k])
                    for k in a.pair_tx))


@pytest.fixture
def fast_faults(monkeypatch):
    """Make every build eligible for the pool and retries instant."""
    monkeypatch.setattr(costmodel, "PARALLEL_THRESHOLD_CELLS", 0)
    monkeypatch.setattr(costmodel, "PARALLEL_RETRY_BACKOFF_SECONDS", 0.0)


class TestBrokenPool:
    def test_serial_fallback_is_bit_identical(self, monkeypatch, fast_faults):
        graph, space = make_problem()
        reference = CostModel(GTX1080TI).build_tables(graph, space)

        calls = {"n": 0}

        def explode(self, graph, space, workers, memory):
            calls["n"] += 1
            no_thread()

        monkeypatch.setattr(CostModel, "_build_arrays_threads", explode)
        tables = CostModel(GTX1080TI).build_tables(graph, space, ctx=THREADS)

        assert calls["n"] == 1 + costmodel.PARALLEL_BUILD_RETRIES
        assert tables.build_stats["degraded"] == 1.0
        assert tables.build_stats["parallel_retries"] == \
            float(costmodel.PARALLEL_BUILD_RETRIES)
        assert tables.build_stats["jobs"] == 1.0
        assert tables.backend == "serial"
        assert "RuntimeError" in tables.degraded_reason
        assert tables_equal(tables, reference)

    def test_transient_failure_recovers_without_degrading(
            self, monkeypatch, fast_faults):
        graph, space = make_problem()
        original = CostModel._build_arrays_threads
        calls = {"n": 0}

        def flaky(self, graph, space, workers, memory):
            calls["n"] += 1
            if calls["n"] == 1:
                no_thread()
            return original(self, graph, space, workers, memory)

        monkeypatch.setattr(CostModel, "_build_arrays_threads", flaky)
        tables = CostModel(GTX1080TI).build_tables(graph, space, ctx=THREADS)
        assert tables.build_stats["degraded"] == 0.0
        assert tables.build_stats["parallel_retries"] == 1.0
        assert tables.backend == "threads"
        assert tables_equal(
            tables, CostModel(GTX1080TI).build_tables(graph, space))

    def test_degraded_build_never_populates_cache(
            self, monkeypatch, fast_faults, tmp_path, caplog):
        monkeypatch.setattr(CostModel, "_build_arrays_threads", no_thread)
        graph, space = make_problem()
        cache = TableCache(tmp_path / "cache")
        with caplog.at_level("WARNING", logger="repro.core.costmodel"):
            tables = CostModel(GTX1080TI).build_tables(
                graph, space, ctx=THREADS.with_overrides(cache=cache))
        assert tables.build_stats["degraded"] == 1.0
        assert list(cache.entries()) == []
        assert any("not caching" in rec.message for rec in caplog.records)

    def test_oserror_also_degrades(self, monkeypatch, fast_faults):
        def explode(self, graph, space, workers, memory):
            raise OSError("resource temporarily unavailable")

        monkeypatch.setattr(CostModel, "_build_arrays_threads", explode)
        graph, space = make_problem()
        tables = CostModel(GTX1080TI).build_tables(graph, space, ctx=THREADS)
        assert tables.build_stats["degraded"] == 1.0
        assert "OSError" in tables.degraded_reason

    def test_real_thread_start_failure_degrades(self, monkeypatch,
                                                fast_faults):
        """The real `ThreadPoolExecutor` path: ``Thread.start`` itself
        refusing (as it does when the process is out of threads)."""
        import threading

        graph, space = make_problem()
        reference = CostModel(GTX1080TI).build_tables(graph, space)
        monkeypatch.setattr(threading.Thread, "start", no_thread)
        tables = CostModel(GTX1080TI).build_tables(graph, space, ctx=THREADS)
        assert tables.build_stats["degraded"] == 1.0
        assert "can't start new thread" in tables.degraded_reason
        assert tables_equal(tables, reference)


class TestInterruptibleBackoff:
    """The retry backoff must poll the run's checkpoint, not sleep
    through a SIGINT or a blown deadline (the fleet's per-task deadlines
    depend on this: a worker stuck in a 30s backoff is a straggler)."""

    def test_sleep_aborts_at_the_next_poll(self):
        import time as _time

        from repro.core.exceptions import RunInterrupted

        calls = {"n": 0}

        def checkpoint(**kwargs):
            calls["n"] += 1
            if calls["n"] >= 3:
                raise RunInterrupted("SIGINT", signal_name="SIGINT")

        t0 = _time.perf_counter()
        with pytest.raises(RunInterrupted):
            costmodel._interruptible_sleep(60.0, checkpoint)
        assert _time.perf_counter() - t0 < 5.0
        assert calls["n"] == 3

    def test_sleep_without_checkpoint_just_sleeps(self):
        costmodel._interruptible_sleep(0.0, None)  # must not raise

    def test_full_backoff_polls_then_returns(self):
        calls = {"n": 0}

        def checkpoint(**kwargs):
            calls["n"] += 1

        costmodel._interruptible_sleep(0.12, checkpoint)
        assert calls["n"] >= 2  # polled at least once per slice

    def test_build_retry_backoff_honors_cancellation(
            self, monkeypatch, fast_faults):
        """Cancel mid-backoff: the hardened build must unwind with
        RunInterrupted instead of finishing the sleep and degrading."""
        import time as _time

        from repro.core.exceptions import RunInterrupted
        from repro.runtime import Cancellation

        monkeypatch.setattr(costmodel, "PARALLEL_RETRY_BACKOFF_SECONDS",
                            60.0)

        cancel = Cancellation()

        def explode(self, graph, space, workers, memory):
            # Fail the first attempt, then request cancellation so the
            # backoff before the retry is where the poll must fire.
            cancel.set("SIGINT")
            no_thread()

        monkeypatch.setattr(CostModel, "_build_arrays_threads", explode)
        graph, space = make_problem()
        ctx = THREADS.with_overrides(cancellation=cancel)
        t0 = _time.perf_counter()
        with pytest.raises(RunInterrupted):
            CostModel(GTX1080TI).build_tables(graph, space, ctx=ctx)
        assert _time.perf_counter() - t0 < 5.0


class TestRuntimeSurfacesDegradation:
    def test_execute_search_reports_degraded_build(
            self, monkeypatch, fast_faults, tmp_path):
        from repro.runtime import SearchJournal, execute_search

        monkeypatch.setattr(CostModel, "_build_arrays_threads", no_thread)
        graph, space = make_problem()
        fresh = execute_search(graph, space, GTX1080TI).result
        journal = SearchJournal(tmp_path / "journal")
        out = execute_search(graph, space, GTX1080TI,
                             ctx=THREADS.with_overrides(journal=journal))
        assert not out.report.clean
        assert any("serial" in d for d in out.report.degradations)
        assert any(ev["kind"] == "table-build-degraded"
                   for ev in journal.events)
        # Degraded, but still the exact answer.
        assert out.result.cost == fresh.cost
        assert out.result.strategy.assignment == fresh.strategy.assignment
