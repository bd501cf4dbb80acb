"""The attempt scheduler shared by the fleet supervisor and the serve engine.

Both planes run searches the same way: hand a task to a persistent pool
worker (`repro.fleet.pool`), watch its heartbeat, reap it when it
writes ``result.json`` or dies, classify a failure from the evidence it
left, SIGKILL it when its heartbeat goes stale, then retry with backoff
or give up after ``max_attempts``.  `AttemptScheduler` owns that cycle;
its owners keep only their bookkeeping, as callbacks:

* the fleet supervisor records manifest transitions, ``fleet.task``
  spans and ``fleet_*`` metrics;
* the serve engine answers flights and their waiters, fills the
  `ResultCache` and the `Quarantine`, and counts ``serve_*`` metrics.

Failure classification is strict.  Dispatch deletes the previous
attempt's ``heartbeat.json`` and ``error.json``; a reaped attempt's
``error.json`` counts only when its ``attempt`` stamp equals the
attempt being reaped; anything else is a ``crash``.  So a stale report
can never relabel a later crash.

The scheduler is single-threaded: one owner thread calls `cycle`.
"""

from __future__ import annotations

import multiprocessing
import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Mapping

from .pool import WorkerPool
from .spec import SweepTask
from .worker import read_json, read_result, task_dir

__all__ = ["AttemptScheduler", "Job", "DEFAULT_MAX_ATTEMPTS",
           "DEFAULT_STRAGGLER_AFTER_SECONDS", "POLL_INTERVAL_SECONDS"]

#: Total attempts a task gets before quarantine (first run + retries).
DEFAULT_MAX_ATTEMPTS = 3

#: Heartbeat age (seconds) past which a worker is declared a straggler
#: and SIGKILLed.
DEFAULT_STRAGGLER_AFTER_SECONDS = 60.0

#: Period (seconds) at which the owner thread calls `AttemptScheduler.cycle`.
#: Searches run 0.1-10 s, so dispatch latency is noise there, and serve
#: cache hits never touch the scheduler at all.
POLL_INTERVAL_SECONDS = 0.05


def _backoff(task_id: str, attempts: int, base: float, cap: float) -> float:
    """Exponential backoff with deterministic per-(task, attempt) jitter.

    Jitter decorrelates a thundering herd of simultaneous failures
    (e.g. every worker dying when a shared filesystem hiccups) without
    making test runs flaky — the same task/attempt always backs off the
    same amount.
    """
    delay = min(cap, base * (2.0 ** max(attempts - 1, 0)))
    jitter = random.Random(f"{task_id}:{attempts}").uniform(0.0, 0.5)
    return delay * (1.0 + jitter)


@dataclass(kw_only=True)
class Job:
    """One task the scheduler drives to success or to its last attempt.

    ``attempts`` counts the attempts dispatched so far (a resumed fleet
    seeds it from the manifest); ``options`` are per-task worker
    overrides such as a serve request's own ``task_deadline``.
    """

    task: SweepTask
    attempts: int = 0
    options: Mapping[str, Any] | None = None
    next_eligible: float = 0.0             # monotonic; retry backoff
    process: Any = None                    # pool process while running
    started: float = 0.0                   # monotonic dispatch time
    straggler_killed: bool = False


class AttemptScheduler:
    """Dispatch, reap, classify, straggler-kill and retry over one pool.

    Parameters
    ----------
    root:
        Directory holding ``tasks/<task_id>/`` (the worker file
        protocol) and the shared ``table-cache``.
    workers:
        Pool width: maximum concurrently running attempts.
    max_attempts:
        Attempts a job gets before its failure is final.
    straggler_after:
        Heartbeat age (seconds) past which a worker is SIGKILLed.
    backoff_base, backoff_cap:
        Retry backoff (seconds); the fleet waits longer than serve.
    options:
        Pool-wide worker options (``task_deadline``).
    on_spawn, on_reuse:
        Pool fork / warm-reuse hooks (metric counters).
    on_dispatch:
        ``(job)`` after a job's attempt was handed to a worker.
    on_success:
        ``(job, result_doc)`` when an attempt left a valid result.
    on_failure:
        ``(job, kind, detail, final)`` for a failed attempt; ``final``
        is True when the job has used all ``max_attempts`` and is
        dropped, else it is queued again after its backoff.
    """

    def __init__(self, root: str | Path, *, workers: int,
                 max_attempts: int, straggler_after: float,
                 backoff_base: float, backoff_cap: float,
                 options: Mapping[str, Any],
                 on_spawn: Callable[[], None],
                 on_reuse: Callable[[], None],
                 on_success: Callable[[Job, dict], None],
                 on_failure: Callable[[Job, str, str, bool], None],
                 on_dispatch: Callable[[Job], None] | None = None) -> None:
        self.root = Path(root)
        self.workers = workers
        self.max_attempts = max_attempts
        self.straggler_after = straggler_after
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.on_dispatch = on_dispatch
        self.on_success = on_success
        self.on_failure = on_failure
        self.pool = WorkerPool(
            mp_ctx=multiprocessing.get_context(), fleet_dir=str(self.root),
            options=options, max_workers=workers,
            on_spawn=on_spawn, on_reuse=on_reuse)
        self.waiting: list[Job] = []
        self.running: dict[str, Job] = {}

    def __len__(self) -> int:
        """Jobs not yet finished: waiting plus running."""
        return len(self.waiting) + len(self.running)

    def submit(self, job: Job) -> None:
        self.waiting.append(job)

    def cycle(self) -> None:
        """One scheduling pass.  Reaping comes first so a worker freed
        this cycle picks up waiting work at once, not a poll later."""
        self._reap()
        self._kill_stragglers()
        self._dispatch()

    # -- the cycle -------------------------------------------------------------

    def _dispatch(self) -> None:
        now = time.monotonic()
        for job in list(self.waiting):
            if len(self.running) >= self.workers:
                return
            if job.next_eligible > now:
                continue
            self.waiting.remove(job)
            tid = job.task.task_id
            tdir = task_dir(self.root, tid)
            tdir.mkdir(parents=True, exist_ok=True)
            # Evidence is always *this* attempt's: staleness is measured
            # against this process, and an old error report is gone.
            (tdir / "heartbeat.json").unlink(missing_ok=True)
            (tdir / "error.json").unlink(missing_ok=True)
            job.attempts += 1
            job.process = self.pool.submit(
                tid, job.task.to_dict(), job.attempts, job.options)
            job.started = now
            job.straggler_killed = False
            self.running[tid] = job
            if self.on_dispatch is not None:
                self.on_dispatch(job)

    def _reap(self) -> None:
        for tid in list(self.running):
            job = self.running[tid]
            # Pool workers outlive their tasks: completion is the atomic
            # result.json write, and a dead process without one is the
            # failure signal (burned on error, SIGKILLed, real crash).
            # A valid result counts even from a process that died
            # afterwards, the same rule as orphan adoption.
            result = read_result(self.root, tid)
            alive = job.process.is_alive()
            if alive and result is None:
                continue
            if not alive:
                job.process.join()
            self.pool.release(tid)
            del self.running[tid]
            if result is not None:
                self.on_success(job, result)
                continue
            kind, detail = self._failure_of(job)
            final = job.attempts >= self.max_attempts
            if not final:
                job.next_eligible = time.monotonic() + _backoff(
                    tid, job.attempts, self.backoff_base, self.backoff_cap)
                self.waiting.append(job)
            self.on_failure(job, kind, detail, final)

    def _failure_of(self, job: Job) -> tuple[str, str]:
        """Classify a failed attempt from the evidence left behind."""
        if job.straggler_killed:
            return "straggler", "heartbeat went stale; worker SIGKILLed"
        err = read_json(task_dir(self.root, job.task.task_id) / "error.json")
        if err is not None and err.get("attempt") == job.attempts:
            return (str(err.get("kind", "error")),
                    f"{err.get('type', 'Exception')}: "
                    f"{err.get('detail', '?')}")
        return "crash", (f"worker died with exit code "
                         f"{job.process.exitcode} and no error report")

    def _kill_stragglers(self) -> None:
        """SIGKILL workers whose heartbeat went stale; reap handles it."""
        now = time.monotonic()
        wall_now = time.time()
        for tid, job in self.running.items():
            if job.straggler_killed or not job.process.is_alive():
                continue
            age = now - job.started
            if age < self.straggler_after:
                continue  # dispatch grace: younger than the threshold
            hb = read_json(task_dir(self.root, tid) / "heartbeat.json")
            hb_age = (wall_now - float(hb["time"])) if hb else age
            if hb_age < self.straggler_after:
                continue
            job.straggler_killed = True
            job.process.kill()
