"""Persistent worker pool: reuse accounting, recycling, crash burning.

The pool must be invisible at the protocol level — same task files, same
failure semantics, byte-identical merges — while actually reusing
processes.  Bookkeeping (recycling, dead-worker replacement) is pinned
against a fake multiprocessing context so the tests are instant and
deterministic; end-to-end behaviour runs through the real supervisor.
"""

import json
import multiprocessing
import queue
from pathlib import Path

from repro.fleet import FleetSupervisor, SweepSpec
from repro.fleet.pool import WorkerPool, pool_worker_main

FAST = dict(backoff_base=0.01, backoff_cap=0.1)


def sweep_spec(**overrides):
    base = dict(models=["alexnet"], ps=[2, 4], methods=["ours"],
                modes=["pow2"])
    base.update(overrides)
    return SweepSpec.from_dict(base)


def run_fleet(spec, fleet_dir, **kwargs):
    opts = dict(FAST)
    opts.update(kwargs)
    resume = opts.pop("resume", False)
    return FleetSupervisor(spec, fleet_dir, **opts).run(resume=resume)


# -- fake multiprocessing context for bookkeeping tests ----------------------


class FakeProcess:
    def __init__(self, target=None, args=(), name=""):
        self.name = name
        self.alive = True
        self.pid = 4242

    def start(self):
        pass

    def is_alive(self):
        return self.alive

    def join(self, timeout=None):
        self.alive = False

    def terminate(self):
        self.alive = False

    def kill(self):
        self.alive = False


class FakeQueue:
    def __init__(self):
        self.items = []

    def put(self, item):
        self.items.append(item)

    def put_nowait(self, item):
        self.items.append(item)

    def close(self):
        pass

    def cancel_join_thread(self):
        pass


class FakeCtx:
    Process = FakeProcess
    Queue = FakeQueue


def make_pool(**kwargs):
    kwargs.setdefault("mp_ctx", FakeCtx())
    kwargs.setdefault("fleet_dir", "/nonexistent")
    kwargs.setdefault("options", {})
    return WorkerPool(**kwargs)


class TestPoolBookkeeping:
    def test_width1_reuses_one_process(self):
        pool = make_pool(max_workers=1)
        for i in range(5):
            pool.submit(f"t{i}", {"model": "alexnet"}, 1)
            pool.release(f"t{i}")
        assert pool.spawned == 1
        assert pool.reused == 4

    def test_recycle_after_one_task_spawns_per_task(self):
        pool = make_pool(max_workers=1, recycle_after=1)
        for i in range(3):
            pool.submit(f"t{i}", {"model": "alexnet"}, 1)
            pool.release(f"t{i}")
        assert pool.spawned == 3
        assert pool.reused == 0

    def test_dead_worker_is_replaced_not_reused(self):
        pool = make_pool(max_workers=2)
        proc = pool.submit("t0", {"model": "alexnet"}, 1)
        proc.alive = False  # burned itself (task failure)
        pool.release("t0")
        pool.submit("t1", {"model": "alexnet"}, 1)
        assert pool.spawned == 2
        assert pool.reused == 0

    def test_spawn_and_reuse_callbacks_fire(self):
        events = []
        pool = make_pool(max_workers=1,
                         on_spawn=lambda: events.append("spawn"),
                         on_reuse=lambda: events.append("reuse"))
        pool.submit("t0", {}, 1)
        pool.release("t0")
        pool.submit("t1", {}, 1)
        assert events == ["spawn", "reuse"]

    def test_shutdown_sentinels_idle_and_terms_busy(self):
        pool = make_pool(max_workers=2)
        pool.submit("t0", {}, 1)
        busy_proc = pool.submit("t1", {}, 1)  # second, distinct worker
        pool.release("t0")                    # first goes idle
        idle_inbox = pool._idle[0].inbox if pool._idle else None
        pool.shutdown(grace=0.01)
        assert not busy_proc.alive
        assert idle_inbox is not None and idle_inbox.items[-1] is None
        assert pool._busy == {} and pool._idle == []

    def test_per_task_options_ride_the_inbox(self):
        pool = make_pool(max_workers=1)
        pool.submit("t0", {"model": "alexnet"}, 1,
                    options={"task_deadline": 1.5})
        inbox = pool._busy["t0"].inbox
        task_dict, attempt, extra = inbox.items[-1]
        assert task_dict == {"model": "alexnet"}
        assert attempt == 1
        assert extra == {"task_deadline": 1.5}
        pool.release("t0")
        # Omitted options travel as None, not an empty dict.
        pool.submit("t1", {}, 2)
        assert pool._busy["t1"].inbox.items[-1] == ({}, 2, None)


class TestPoolWorkerProcess:
    def test_orphan_exits_when_parent_is_gone(self):
        """A pool worker whose supervisor vanished must exit on its own
        instead of lingering as an orphan."""
        ctx = multiprocessing.get_context()
        inbox = ctx.Queue()
        proc = ctx.Process(target=pool_worker_main,
                           args=(inbox, "/nonexistent", {}, 1))
        proc.start()  # parent pid 1 is never ours
        proc.join(timeout=10)
        assert proc.exitcode == 0

    def test_sentinel_stops_worker_cleanly(self):
        ctx = multiprocessing.get_context()
        inbox = ctx.Queue()
        inbox.put(None)
        proc = ctx.Process(
            target=pool_worker_main,
            args=(inbox, "/nonexistent", {}, multiprocessing.current_process().pid))
        proc.start()
        proc.join(timeout=10)
        assert proc.exitcode == 0


class TestPoolEndToEnd:
    def test_persistent_reuses_and_merges_identically(self, tmp_path):
        spec = sweep_spec(seeds=[0, 1])  # 4 tasks
        rep_narrow = run_fleet(spec, tmp_path / "narrow", workers=1)
        rep_wide = run_fleet(spec, tmp_path / "wide", workers=2)
        assert rep_narrow.clean and rep_wide.clean
        assert rep_narrow.workers_spawned == 1
        assert rep_narrow.workers_reused == rep_narrow.tasks_total - 1
        assert (tmp_path / "narrow" / "results.jsonl").read_bytes() == \
            (tmp_path / "wide" / "results.jsonl").read_bytes()
        summary = json.loads(
            (tmp_path / "narrow" / "summary.json").read_text())
        assert "pool" not in summary
        assert summary["workers_spawned"] == 1
        assert summary["workers_reused"] == rep_narrow.tasks_total - 1

    def test_failed_task_burns_its_worker(self, tmp_path):
        spec = sweep_spec(ps=[2], tasks=[{
            "model": "alexnet", "p": 4,
            "chaos": {"kind": "raise", "attempts": 1}}])
        report = run_fleet(spec, tmp_path / "fleet", workers=1)
        assert report.clean
        assert report.retries == 1
        # The failing attempt's worker died with it; a fresh process
        # served the retry, so at least two forks happened.
        assert report.workers_spawned >= 2

    def test_resume_under_persistent_pool(self, tmp_path):
        """Kill-free resume parity: a drained sweep resumed under the
        pool replays results without rerunning anything."""
        spec = sweep_spec(seeds=[0, 1])
        run_fleet(spec, tmp_path / "fleet", workers=2)
        first = (tmp_path / "fleet" / "results.jsonl").read_bytes()
        rep = run_fleet(spec, tmp_path / "fleet", workers=2, resume=True)
        assert rep.resumed and rep.completed_this_run == 0
        assert (tmp_path / "fleet" / "results.jsonl").read_bytes() == first
