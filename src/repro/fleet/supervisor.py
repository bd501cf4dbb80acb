"""The fleet supervisor: drain a sweep through self-healing workers.

`FleetSupervisor.run` takes a `SweepSpec` and a fleet directory and
drives every task to ``done`` or ``quarantined`` through the shared
`AttemptScheduler` (`repro.fleet.scheduler`) over a persistent pool of
crash-isolated worker processes, surviving every failure mode the chaos
suite can produce:

* **worker crash** (``os._exit``, OOM kill, segfault): a dead worker
  without a result file marks a failed attempt; the task retries with
  exponential backoff and deterministic jitter;
* **poison task** (fails every attempt): after ``max_attempts`` total
  attempts it is *quarantined* — recorded with its last error in the
  manifest and summary, skipped by the merge, never fatal to the fleet;
* **straggler / wedged worker**: a heartbeat older than
  ``straggler_after`` gets the process SIGKILLed and the task
  reassigned (counted, attempt burned);
* **supervisor death**: every state transition is flushed atomically to
  the `FleetManifest`, so ``kill -9`` mid-sweep loses at most the
  in-flight attempts; ``--resume`` demotes them to pending, *adopts*
  any finished results orphan workers left behind, and replays
  completed tasks from their result files without recomputing — the
  merged ``results.jsonl`` is byte-identical to an uninterrupted run;
* **SIGINT/SIGTERM**: the first signal flips the context's
  `Cancellation` token (pair with `trap_signals`); the supervisor stops
  dispatching, terminates children (TERM, then KILL after a grace
  period), flushes the manifest, and raises `RunInterrupted` so the CLI
  exits with the documented code 6.

Fleet-level observability flows through the run's `RunContext`: a
``fleet`` root span with one ``fleet.task`` span per terminal task
state, plus ``fleet_*`` counters and a ``fleet_searches_per_minute``
gauge.
"""

from __future__ import annotations

import time
from pathlib import Path

from ..obs.profile import metrics_of, tracer_of
from ..runtime.budget import Cancellation, RunBudget
from ..runtime.context import RunContext
from .manifest import FleetManifest
from .pool import WorkerPool
from .report import FleetReport, merge_results, write_summary
from .scheduler import (DEFAULT_MAX_ATTEMPTS, DEFAULT_STRAGGLER_AFTER_SECONDS,
                        POLL_INTERVAL_SECONDS, AttemptScheduler, Job)
from .spec import SweepSpec, SweepTask
from .worker import prewarm_fork_template, read_result

__all__ = ["FleetSupervisor"]

#: Exponential-backoff base/cap for task retries (seconds).
BACKOFF_BASE_SECONDS = 0.5
BACKOFF_CAP_SECONDS = 30.0

#: Grace period between SIGTERM and SIGKILL during shutdown.
SHUTDOWN_GRACE_SECONDS = 2.0


class FleetSupervisor:
    """Drains one `SweepSpec` through crash-isolated worker processes.

    Parameters
    ----------
    spec:
        The sweep to run (see `repro.fleet.spec`).
    fleet_dir:
        Root for all fleet state: ``manifest.json``, per-task
        directories, the shared table cache, merged results, summary.
    workers:
        Maximum concurrently running worker processes.
    max_attempts:
        Total attempts (first run + retries) before quarantine.
    task_deadline:
        Per-task wall-clock budget (seconds) enforced *inside* the
        worker via `RunBudget`; ``None`` leaves tasks unbounded (the
        straggler reaper still applies).
    straggler_after:
        Heartbeat age (seconds) past which the worker is SIGKILLed and
        the task reassigned.
    ctx:
        Fleet-level `RunContext`: cancellation token (pair with
        `trap_signals`), optional fleet-wide deadline, tracer/metrics.
        Per-task budgets are separate and built by the workers.
    """

    def __init__(self, spec: SweepSpec, fleet_dir: str | Path, *,
                 workers: int = 4,
                 max_attempts: int = DEFAULT_MAX_ATTEMPTS,
                 task_deadline: float | None = None,
                 straggler_after: float = DEFAULT_STRAGGLER_AFTER_SECONDS,
                 backoff_base: float = BACKOFF_BASE_SECONDS,
                 backoff_cap: float = BACKOFF_CAP_SECONDS,
                 ctx: RunContext | None = None) -> None:
        if workers < 1:
            raise ValueError(f"workers={workers} must be >= 1")
        if max_attempts < 1:
            raise ValueError(f"max_attempts={max_attempts} must be >= 1")
        if straggler_after <= 0:
            raise ValueError(
                f"straggler_after={straggler_after} must be positive")
        self.spec = spec
        self.fleet_dir = Path(fleet_dir)
        self.workers = workers
        self.max_attempts = max_attempts
        self.task_deadline = task_deadline
        self.straggler_after = straggler_after
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        if ctx is None:
            ctx = RunContext()
        if ctx.budget is None or ctx.cancellation is None:
            ctx = ctx.with_overrides(
                budget=ctx.budget or RunBudget(),
                cancellation=ctx.cancellation or Cancellation())
        self.ctx = ctx
        self.manifest = FleetManifest(self.fleet_dir)

    # -- public entry point --------------------------------------------------

    def run(self, *, resume: bool = False) -> FleetReport:
        """Drain the sweep; returns the `FleetReport`.

        Raises `RunInterrupted` on SIGINT/SIGTERM (manifest flushed,
        children reaped — rerun with ``resume=True`` to continue) and
        `DeadlineExceededError` when the fleet-level budget expires.
        """
        self.ctx.started()
        tracer = tracer_of(self.ctx)
        metrics = metrics_of(self.ctx)
        tasks = self.spec.expand()
        by_id = {t.task_id: t for t in tasks}
        t0 = time.monotonic()
        with self.ctx.observe(), tracer.span(
                "fleet", tasks=len(tasks), workers=self.workers,
                resume=resume) as fleet_span:
            resumed = self.manifest.open(
                self.spec.fingerprint(), list(by_id), resume=resume)
            if resumed:
                self._adopt_orphan_results(by_id, tracer)
            report = self._drain(by_id, tracer, metrics, t0)
            report.resumed = resumed
            report.workers = self.workers
            report.manifest_path = str(self.manifest.path)
            results = merge_results(self.fleet_dir, tasks, self.manifest)
            report.results_path = str(results)
            summary = write_summary(self.fleet_dir, report,
                                    self.spec.fingerprint())
            report.summary_path = str(summary)
            fleet_span.set(succeeded=report.succeeded,
                           quarantined=report.quarantined,
                           retries=report.retries,
                           searches_per_minute=report.searches_per_minute)
            metrics.gauge(
                "fleet_searches_per_minute",
                "completed searches per minute at fleet width").set(
                    report.searches_per_minute)
        return report

    # -- resume adoption -----------------------------------------------------

    def _adopt_orphan_results(self, by_id: dict[str, SweepTask],
                              tracer) -> None:
        """Adopt finished results the previous fleet never recorded.

        A supervisor killed between a worker's atomic ``result.json``
        write and the manifest's ``done`` flush — or whose orphaned
        workers finished after it died — left completed work on disk.
        Recognise it by task id (a content hash, so a matching file
        *is* the right answer) instead of recomputing.
        """
        for tid in self.manifest.in_state("pending"):
            doc = read_result(self.fleet_dir, tid)
            if doc is None:
                continue
            self.manifest.mark_done(
                tid, seconds=float(doc.get("elapsed_seconds", 0.0)))
            counters = self.manifest.counters
            counters["adopted"] = int(counters.get("adopted", 0)) + 1
            self.manifest.flush()
            with tracer.span("fleet.task", task=by_id[tid].label,
                             state="adopted"):
                pass

    # -- the drain loop ------------------------------------------------------

    def _drain(self, by_id: dict[str, SweepTask], tracer, metrics,
               t0: float) -> FleetReport:
        """Run every pending task through the shared `AttemptScheduler`;
        the manifest, spans and ``fleet_*`` metrics are its callbacks."""
        completed_this_run = 0
        task_seconds = metrics.histogram(
            "fleet_task_seconds", "wall seconds per completed fleet task")

        def on_dispatch(job: Job) -> None:
            self.manifest.mark_running(job.task.task_id,
                                       pid=job.process.pid)

        def on_success(job: Job, doc: dict) -> None:
            nonlocal completed_this_run
            tid = job.task.task_id
            seconds = time.monotonic() - job.started
            self.manifest.mark_done(tid, seconds=seconds)
            task_seconds.observe(seconds)
            metrics.counter("fleet_tasks_succeeded_total",
                            "fleet tasks completed").inc()
            with tracer.span("fleet.task", task=job.task.label,
                             state="done", seconds_task=seconds,
                             attempts=job.attempts):
                pass
            completed_this_run += 1

        def on_failure(job: Job, kind: str, detail: str,
                       final: bool) -> None:
            state = self.manifest.mark_failed(
                job.task.task_id, detail=detail, kind=kind,
                max_attempts=self.max_attempts)
            if kind == "straggler":
                metrics.counter("fleet_stragglers_killed_total",
                                "straggling fleet workers SIGKILLed").inc()
            if final:
                metrics.counter("fleet_tasks_quarantined_total",
                                "fleet tasks quarantined").inc()
            else:
                metrics.counter("fleet_task_retries_total",
                                "fleet task retry dispatches").inc()
            with tracer.span("fleet.task", task=job.task.label,
                             state=state, failure=kind,
                             attempts=job.attempts):
                pass

        pending = [by_id[tid] for tid in self.manifest.in_state("pending")]
        # Workers fork from this process: memos warmed here are inherited
        # by every worker, so each distinct problem pays its first-touch
        # cost exactly once fleet-wide.
        prewarm_fork_template(pending, self.fleet_dir)
        scheduler = AttemptScheduler(
            self.fleet_dir, workers=self.workers,
            max_attempts=self.max_attempts,
            straggler_after=self.straggler_after,
            backoff_base=self.backoff_base, backoff_cap=self.backoff_cap,
            options={"task_deadline": self.task_deadline},
            on_spawn=metrics.counter(
                "fleet_worker_spawned_total",
                "fleet worker processes forked").inc,
            on_reuse=metrics.counter(
                "fleet_worker_reused_total",
                "fleet tasks served by an already-warm pool worker").inc,
            on_dispatch=on_dispatch, on_success=on_success,
            on_failure=on_failure)
        for task in pending:
            scheduler.submit(Job(
                task=task,
                attempts=int(self.manifest.task(task.task_id)["attempts"])))
        try:
            while True:
                self._poll_control()
                with self.manifest.batch():
                    scheduler.cycle()
                if not len(scheduler):
                    break
                time.sleep(POLL_INTERVAL_SECONDS)
        except BaseException:
            # Busy workers are TERMed, then KILLed past the grace period;
            # resume demotes their "running" slots back to pending.
            scheduler.pool.shutdown(SHUTDOWN_GRACE_SECONDS)
            self.manifest.flush()
            raise
        scheduler.pool.shutdown(SHUTDOWN_GRACE_SECONDS)
        return self._build_report(by_id, completed_this_run,
                                  time.monotonic() - t0, scheduler.pool)

    def _poll_control(self) -> None:
        """Surface cancellation/deadline; `_drain`'s unwind path kills
        the children before the error escapes."""
        assert self.ctx.cancellation is not None
        assert self.ctx.budget is not None
        self.ctx.cancellation.check("fleet")
        self.ctx.budget.check("fleet")

    # -- reporting -----------------------------------------------------------

    def _build_report(self, by_id: dict[str, SweepTask],
                      completed_this_run: int, wall_seconds: float,
                      pool: WorkerPool) -> FleetReport:
        counts = self.manifest.counts()
        report = FleetReport(
            tasks_total=len(by_id),
            succeeded=counts["done"],
            quarantined=counts["quarantined"],
            retries=counts["retries"],
            stragglers_killed=counts["stragglers_killed"],
            worker_crashes=counts["worker_crashes"],
            adopted=int(counts.get("adopted", 0)),
            completed_this_run=completed_this_run,
            wall_seconds=wall_seconds,
            searches_per_minute=(
                60.0 * completed_this_run / wall_seconds
                if wall_seconds > 0 else 0.0),
            workers_spawned=pool.spawned,
            workers_reused=pool.reused,
        )
        for tid in self.manifest.in_state("quarantined"):
            rec = self.manifest.task(tid)
            report.quarantined_tasks.append({
                "task_id": tid,
                "label": by_id[tid].label,
                "attempts": rec["attempts"],
                "last_error": rec.get("last_error"),
            })
        return report
