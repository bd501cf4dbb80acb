"""The fleet worker: its problem memo, shared by fleet workers and serve
threads, and the table store its task attempts share."""

import os
import signal
import sys
import threading

from repro.api import Problem
from repro.core.tablecache import TableCache
from repro.fleet.spec import SweepTask
from repro.fleet.worker import (benchmark_problem, read_result,
                                run_task_attempt, task_dir)


class TestProblemMemo:
    def test_memoized_problem_fingerprints_like_a_fresh_one(self):
        graph, space = benchmark_problem("alexnet", 4, "divisors")
        assert benchmark_problem("alexnet", 4, "divisors")[0] is graph
        fresh = Problem.from_benchmark("alexnet", 4, mode="divisors")
        assert Problem(graph, space).fingerprint(seed=3) == \
            fresh.fingerprint(seed=3)

    def test_concurrent_misses_and_evictions(self):
        keys = [(model, p, mode) for model in ("alexnet", "rnnlm")
                for p in (1, 2, 4, 8, 16) for mode in ("pow2", "divisors")]
        errors = []

        def hammer(offset):
            try:
                for i in range(100):
                    model, p, mode = keys[(offset + i) % len(keys)]
                    _, space = benchmark_problem(model, p, mode)
                    assert (space.p, space.mode) == (p, mode)
            except BaseException as err:
                errors.append(err)

        threads = [threading.Thread(target=hammer, args=(3 * i,))
                   for i in range(8)]
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert benchmark_problem.cache_info().currsize <= 8

    def test_forked_worker_inherits_built_problems(self):
        """Pool workers fork from the supervisor or the server, after
        it built (and fingerprinted) the problems they will search."""
        graph, _ = benchmark_problem("rnnlm", 2, "pow2")
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                signal.alarm(30)
                if benchmark_problem("rnnlm", 2, "pow2")[0] is graph:
                    code = 0
            finally:
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0


class TestTaskAttempt:
    def test_one_cell_stores_its_tables_once(self, tmp_path):
        """Two tasks of one (model, machine, p, mode) cell share one
        entry in the fleet's table store, and their journals hold
        nothing but ``journal.json``."""
        tasks = [SweepTask(model="alexnet", p=4, seed=seed)
                 for seed in (0, 1)]
        for task in tasks:
            assert run_task_attempt(task.to_dict(), 1, str(tmp_path), {})
            assert read_result(tmp_path, task.task_id) is not None
        entries = list(TableCache(tmp_path / "table-cache").entries())
        assert len(entries) == 1
        for task in tasks:
            journal = task_dir(tmp_path, task.task_id) / "journal"
            assert [f.name for f in journal.iterdir()] == ["journal.json"]
