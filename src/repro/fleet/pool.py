"""The persistent fleet worker pool: pre-forked, recycled, crash-only.

Forking a fresh interpreter per task attempt pays fork, imports and
journal setup for every task; on the 18-task benchmark grid that fixed
cost dominates the actual search.  This pool keeps long-lived worker
processes that drain tasks from per-worker inboxes instead, while
keeping the crash-only file protocol of `repro.fleet.worker`:

- Workers communicate results only through ``result.json`` /
  ``error.json`` / ``heartbeat.json`` under the task directory (the
  inbox queue carries task dicts *into* a worker, never results out),
  so straggler detection, quarantine, resume, and orphan-result
  adoption read files, never pipes.
- A worker that sees a task attempt *fail* (error, deadline, chaos
  ``raise``) burns itself with ``os._exit(1)`` after writing
  ``error.json``, so a failed task never shares an interpreter with
  the next one.  The scheduler replaces it on the next dispatch.
- Healthy workers are recycled after `recycle_after` tasks to bound
  leak accumulation; recycling is scheduler-driven (sentinel + join)
  so a task is never enqueued to a process that is about to exit.
- Workers watch their parent pid each inbox-poll; if the supervisor
  died uncleanly (SIGKILL) they exit rather than linger as orphans.
"""

from __future__ import annotations

import os
import queue
import signal
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

__all__ = ["WorkerPool", "pool_worker_main", "DEFAULT_RECYCLE_AFTER",
           "INBOX_POLL_SECONDS"]

#: How often an idle worker wakes to check its inbox and its parent.
INBOX_POLL_SECONDS = 0.25

#: Healthy workers are retired after this many tasks (leak hygiene).
DEFAULT_RECYCLE_AFTER = 25


def pool_worker_main(inbox, fleet_dir: str, options: Mapping[str, Any],
                     parent_pid: int) -> None:
    """Long-lived child entry point: drain tasks until told to stop.

    Protocol on ``inbox``: ``(task_dict, attempt, extra_options)``
    tuples to run (``extra_options`` — ``None`` for none — is merged
    over the pool-wide ``options``, which is how the serve daemon gives
    each request its own deadline), ``None`` as a clean-shutdown
    sentinel.  A *failed* attempt (False from `run_task_attempt`, or an
    escaped exception) ends the process with ``os._exit(1)``, so one
    task's damage never leaks into the next.
    """
    from .worker import run_task_attempt

    # The supervisor owns shutdown: ignore SIGINT (a terminal ^C hits
    # the whole process group) so the fleet winds down through the
    # supervisor's manifest flush, not through N dying children.  A
    # forked child also inherits `trap_signals`' SIGTERM handler, which
    # would flip a *copy* of the supervisor's token and keep running —
    # restore the default so the pool's terminate() actually terminates.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    while True:
        try:
            item = inbox.get(timeout=INBOX_POLL_SECONDS)
        except queue.Empty:
            if os.getppid() != parent_pid:
                # Supervisor died uncleanly; don't linger as an orphan.
                os._exit(0)
            continue
        if item is None:
            return  # clean recycle/shutdown
        task_dict, attempt, extra = item
        merged = dict(options)
        if extra:
            merged.update(extra)
        try:
            ok = run_task_attempt(task_dict, attempt, fleet_dir, merged)
        except BaseException:
            os._exit(1)
        if not ok:
            # error.json is on disk; burn the process for crash
            # isolation.
            os._exit(1)


@dataclass
class _PoolWorker:
    process: Any
    inbox: Any
    tasks_done: int = 0


@dataclass
class WorkerPool:
    """Supervisor-side pool of reusable worker processes.

    ``submit`` hands a task to an idle worker (forking a fresh one only
    when none is available), ``release`` returns the worker to the idle
    list after the supervisor has reaped the task — retiring it first
    if it hit the recycle limit or died.  All bookkeeping runs on the
    supervisor's thread; workers never share an inbox, so a dead
    worker's queued sentinel can't strand another worker's task.
    """

    mp_ctx: Any
    fleet_dir: str
    options: Mapping[str, Any]
    max_workers: int = 4
    recycle_after: int = DEFAULT_RECYCLE_AFTER
    on_spawn: Callable[[], None] | None = None
    on_reuse: Callable[[], None] | None = None
    spawned: int = 0
    reused: int = 0
    _idle: list = field(default_factory=list)
    _busy: dict = field(default_factory=dict)

    def submit(self, task_id: str, task_dict: Mapping[str, Any],
               attempt: int,
               options: Mapping[str, Any] | None = None):
        """Dispatch one task; returns the worker's process handle.

        ``options`` are per-task overrides merged over the pool-wide
        ``options`` inside the worker (e.g. a serve request's own
        ``task_deadline``).
        """
        worker = None
        while self._idle:
            cand = self._idle.pop()
            if cand.process.is_alive():
                worker = cand
                break
            cand.process.join(timeout=0)  # reap a silently-dead idler
        if worker is None:
            worker = self._spawn()
        else:
            self.reused += 1
            if self.on_reuse is not None:
                self.on_reuse()
        worker.inbox.put((dict(task_dict), attempt,
                          None if options is None else dict(options)))
        self._busy[task_id] = worker
        return worker.process

    def release(self, task_id: str) -> None:
        """Return the worker for ``task_id`` after its task was reaped."""
        worker = self._busy.pop(task_id, None)
        if worker is None:
            return
        if not worker.process.is_alive():
            worker.process.join(timeout=0)
            self._drain_inbox(worker)
            return
        worker.tasks_done += 1
        if worker.tasks_done >= self.recycle_after:
            self._retire(worker)
        else:
            self._idle.append(worker)

    def shutdown(self, grace: float = 2.0) -> None:
        """Stop every worker: idle ones exit on a sentinel, busy ones
        get SIGTERM (their in-flight attempt dies), stragglers are
        SIGKILLed after ``grace`` seconds."""
        import time

        idle, busy = self._idle, list(self._busy.values())
        self._idle, self._busy = [], {}
        for worker in idle:
            if worker.process.is_alive():
                try:
                    worker.inbox.put_nowait(None)
                except (queue.Full, ValueError):  # pragma: no cover
                    pass
        for worker in busy:
            if worker.process.is_alive():
                worker.process.terminate()
        deadline = time.monotonic() + grace
        for worker in idle + busy:
            worker.process.join(max(0.0, deadline - time.monotonic()))
            if worker.process.is_alive():  # pragma: no cover - stuck
                worker.process.kill()
                worker.process.join()
            self._drain_inbox(worker)

    # -- internals -----------------------------------------------------------

    def _spawn(self) -> _PoolWorker:
        inbox = self.mp_ctx.Queue()
        process = self.mp_ctx.Process(
            target=pool_worker_main,
            args=(inbox, self.fleet_dir, dict(self.options), os.getpid()),
            name=f"fleet-pool-{self.spawned}")
        process.start()
        self.spawned += 1
        if self.on_spawn is not None:
            self.on_spawn()
        return _PoolWorker(process=process, inbox=inbox)

    def _retire(self, worker: _PoolWorker) -> None:
        try:
            worker.inbox.put_nowait(None)
        except (queue.Full, ValueError):  # pragma: no cover
            pass
        worker.process.join(timeout=2.0)
        if worker.process.is_alive():  # pragma: no cover - wedged
            worker.process.kill()
            worker.process.join()
        self._drain_inbox(worker)

    @staticmethod
    def _drain_inbox(worker: _PoolWorker) -> None:
        # mp.Queue owns a feeder thread; close it so interpreter exit
        # doesn't block joining a thread whose pipe reader is gone.
        try:
            worker.inbox.close()
            worker.inbox.cancel_join_thread()
        except (OSError, ValueError):  # pragma: no cover
            pass
