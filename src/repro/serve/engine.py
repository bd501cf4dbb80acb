"""The search engine behind the serve daemon.

One `SearchEngine` owns a `repro.fleet.scheduler.AttemptScheduler` (the
fleet supervisor's, over a persistent worker pool) and a single
**dispatcher thread** that drives it — submit, reap, straggler kill,
retry, quarantine — while HTTP handler threads only enqueue work and
wait on events.  Searches run in crash-isolated child processes over
the fleet's file protocol (``result.json`` / ``error.json`` /
``heartbeat.json`` under ``<state_dir>/tasks/<task_id>/``), so a search
that segfaults, OOMs, or wedges never takes down the server.

Request flow (handler thread side):

1. ``fingerprint_of(task)`` — the public `Problem.fingerprint` digest,
   computed over the fleet worker's problem memo
   (`repro.fleet.worker.benchmark_problem`, the one place a benchmark
   problem is built), so a warm lookup costs microseconds, not a graph
   build, and pool workers forked later inherit the built problem.
2. `ResultCache` hit → answered immediately, no admission slot, no
   worker.
3. `Quarantine` hit → structured 503 — or, when the request opted in
   with ``degrade``, one more pass of steps 2–4 with the **degraded**
   task: ``resilient=True`` with a coarsened enumeration mode, under
   its own fingerprint.
4. Otherwise the request joins the in-flight **flight** for its
   fingerprint (request coalescing: N identical requests, one search)
   or creates a new one, then waits on the flight's event with its own
   deadline.

Dispatcher side, per flight: adopt an existing on-disk result if one
matches (same rule as fleet resume adoption), else dispatch to a pool
worker with the request's own ``task_deadline``; a failed attempt burns
the worker process (crash isolation) and retries with deterministic
backoff; ``max_attempts`` failures quarantine the fingerprint — every
coalesced waiter gets the same structured 503, persisted so a restarted
server refuses the poison problem without re-burning workers.  If the
dispatcher itself dies (e.g. fork fails), every waiter gets a 503 and
so does every later miss: nothing waits on a thread that is gone.
"""

from __future__ import annotations

import logging
import os
import queue
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Mapping

from ..fleet.scheduler import (DEFAULT_MAX_ATTEMPTS,
                               DEFAULT_STRAGGLER_AFTER_SECONDS,
                               POLL_INTERVAL_SECONDS, AttemptScheduler, Job)
from ..fleet.spec import SweepTask
from ..fleet.worker import benchmark_problem, read_result
from ..obs.metrics import NULL_METRICS
from .coalesce import Quarantine, ResultCache
from .wire import ServeError, ServeRequest

__all__ = ["SearchEngine", "EngineResult", "DEGRADE_LADDER"]

#: Retry backoff base/cap (seconds) — much tighter than the fleet's:
#: a waiting HTTP client should not watch a 30s backoff ladder.
BACKOFF_BASE_SECONDS = 0.05
BACKOFF_CAP_SECONDS = 1.0

#: The degradation ladder: a quarantined problem retried with
#: ``degrade: true`` runs resilient with a coarser enumeration mode —
#: a cheaper, sturdier search that answers *something* principled.
DEGRADE_LADDER = {"all": "divisors", "divisors": "pow2", "pow2": "pow2"}

_log = logging.getLogger(__name__)


def quarantined_error(fingerprint: str, entry: Mapping[str, Any],
                      *, degradable: bool) -> ServeError:
    """The structured 503 every waiter on a poison fingerprint gets."""
    hint = ("resubmit with degrade=true for a resilient, coarsened "
            "fallback search" if degradable else
            "the degraded fallback failed too")
    return ServeError(
        503, "quarantined",
        f"problem is quarantined after {entry.get('attempts', '?')} "
        f"failed attempts; {hint}",
        detail={"fingerprint": fingerprint,
                "attempts": entry.get("attempts"),
                "last_error_kind": entry.get("kind"),
                "last_error": entry.get("detail")})


@dataclass
class EngineResult:
    """One answered request: the deterministic record + how it was served."""

    fingerprint: str
    record: dict[str, Any]
    cached: bool = False
    coalesced: bool = False
    attempts: int = 0
    degraded: bool = False


@dataclass(kw_only=True)
class _Flight(Job):
    """One in-flight search shared by every coalesced waiter."""

    fingerprint: str
    event: threading.Event = field(default_factory=threading.Event)
    waiters: int = 1
    outcome: Any = None                    # EngineResult | ServeError


class SearchEngine:
    """Coalescing, quarantining, crash-isolated search executor.

    Parameters
    ----------
    state_dir:
        Root for everything persistent: ``tasks/<task_id>/`` worker
        protocol dirs, the shared ``table-cache``, ``results.json``
        (result cache), ``quarantine.json``.  Restarting a (possibly
        SIGKILLed) server on the same directory restores all of it.
    workers:
        Pool width — maximum concurrently running search processes.
    max_attempts:
        Worker deaths a fingerprint survives before quarantine.
    default_deadline:
        Worker-side wall-clock budget applied when a request carries no
        ``deadline`` of its own.
    memory_budget:
        Server-wide DP memory-budget cap; a request asking for more is
        clamped (the budget rides inside the task fingerprint, so the
        clamp happens before fingerprinting).
    """

    def __init__(self, state_dir: str | os.PathLike, *,
                 workers: int = 4,
                 max_attempts: int = DEFAULT_MAX_ATTEMPTS,
                 default_deadline: float | None = None,
                 memory_budget: int | None = None,
                 straggler_after: float = DEFAULT_STRAGGLER_AFTER_SECONDS,
                 metrics=NULL_METRICS) -> None:
        if workers < 1:
            raise ValueError(f"workers={workers} must be >= 1")
        if max_attempts < 1:
            raise ValueError(f"max_attempts={max_attempts} must be >= 1")
        self.state_dir = Path(state_dir)
        self.state_dir.mkdir(parents=True, exist_ok=True)
        self.workers = workers
        self.max_attempts = max_attempts
        self.default_deadline = default_deadline
        self.memory_budget = memory_budget
        self.straggler_after = straggler_after
        self.metrics = metrics
        self.cache = ResultCache(self.state_dir / "results.json")
        self.quarantine = Quarantine(self.state_dir / "quarantine.json")
        self._lock = threading.Lock()
        self._flights: dict[str, _Flight] = {}
        self._inbox: "queue.Queue[_Flight]" = queue.Queue()
        self._stop = threading.Event()
        #: The 503 every new flight gets once the dispatcher has exited.
        self._down: ServeError | None = None
        self._scheduler = AttemptScheduler(
            self.state_dir, workers=workers, max_attempts=max_attempts,
            straggler_after=straggler_after,
            backoff_base=BACKOFF_BASE_SECONDS,
            backoff_cap=BACKOFF_CAP_SECONDS,
            options={"task_deadline": default_deadline},
            on_spawn=metrics.counter(
                "serve_worker_spawned_total",
                "serve pool worker processes forked").inc,
            on_reuse=metrics.counter(
                "serve_worker_reused_total",
                "serve searches run on an already-warm pool worker").inc,
            on_success=self._on_success, on_failure=self._on_failure)
        self._coalesce_hits = metrics.counter(
            "serve_coalesce_hits_total",
            "requests answered by joining an in-flight identical search")
        self._cache_hits = metrics.counter(
            "serve_result_cache_hits_total",
            "requests answered from the cross-request result cache")
        self._searches = metrics.counter(
            "serve_searches_total", "searches completed by pool workers")
        self._retries = metrics.counter(
            "serve_retries_total", "search attempt retries after failure")
        self._crashes = metrics.counter(
            "serve_worker_crashes_total",
            "search attempts that died without an error report")
        self._quarantined = metrics.counter(
            "serve_quarantined_total", "fingerprints quarantined")
        self._depth = metrics.gauge(
            "serve_queue_depth", "in-flight searches (waiting + running)")
        self._dispatcher = threading.Thread(
            target=self._run_dispatcher, daemon=True, name="serve-dispatcher")
        self._dispatcher.start()

    # -- handler-thread API --------------------------------------------------

    def normalize(self, task: SweepTask) -> SweepTask:
        """Apply server-wide clamps (DP memory budget) to a request task.

        Must run before fingerprinting: the clamped budget is part of
        the answer, so two requests above the cap coalesce correctly.
        """
        if self.memory_budget is not None and (
                task.memory_budget is None
                or task.memory_budget > self.memory_budget):
            return replace(task, memory_budget=self.memory_budget)
        return task

    def fingerprint_of(self, task: SweepTask) -> str:
        """`Problem.fingerprint` of one task, over the problem memo."""
        from ..api import Problem
        from ..core.machine import MACHINES

        graph, space = benchmark_problem(task.model, task.p, task.mode)
        return Problem(graph, space, MACHINES[task.machine]).fingerprint(
            method=task.method, seed=task.seed, reduce=task.reduce,
            resilient=task.resilient, memory_budget=task.memory_budget)

    def cached(self, fingerprint: str) -> dict | None:
        """Result-cache lookup (counts a hit metric when it lands)."""
        rec = self.cache.get(fingerprint)
        if rec is not None:
            with self._lock:
                self._cache_hits.inc()
        return rec

    def execute(self, request: ServeRequest,
                fingerprint: str | None = None) -> EngineResult:
        """Answer one admitted request; blocks, raises `ServeError`.

        ``fingerprint`` lets the server reuse the digest it computed for
        the cache fast path; the task must already be normalized then.
        A quarantined problem gets a second pass with its degraded task
        when the request opted in (resilient, coarsened mode, no chaos);
        that pass's answers carry ``degraded=True``.
        """
        task = request.task if fingerprint is not None \
            else self.normalize(request.task)
        fp = fingerprint if fingerprint is not None \
            else self.fingerprint_of(task)
        for degraded in (False, True):
            rec = self.cached(fp)
            if rec is not None:
                return EngineResult(fingerprint=fp, record=rec, cached=True,
                                    degraded=degraded)
            entry = self.quarantine.get(fp)
            if entry is None:
                break
            if degraded or not request.degrade:
                raise quarantined_error(fp, entry, degradable=not degraded)
            # Never degrade *into* an injected fault.
            task = replace(task, mode=DEGRADE_LADDER.get(task.mode, "pow2"),
                           resilient=True, chaos=None)
            fp = self.fingerprint_of(task)
        flight, coalesced = self._join(fp, task, request.deadline)
        try:
            result = self._await(flight, coalesced, request.deadline)
        finally:
            with self._lock:
                flight.waiters -= 1
        result.degraded = degraded
        return result

    def quarantine_snapshot(self) -> dict[str, dict]:
        return self.quarantine.snapshot()

    # -- coalescing ----------------------------------------------------------

    def _join(self, fp: str, task: SweepTask,
              deadline: float | None) -> tuple[_Flight, bool]:
        """Join the in-flight search for ``fp``, creating it if needed."""
        if deadline is None:
            deadline = self.default_deadline
        with self._lock:
            if self._down is not None:
                raise self._down
            flight = self._flights.get(fp)
            if flight is not None:
                flight.waiters += 1
                self._coalesce_hits.inc()
                return flight, True
            flight = _Flight(
                fingerprint=fp, task=task,
                options=(None if deadline is None
                         else {"task_deadline": deadline}))
            self._flights[fp] = flight
        self._inbox.put(flight)
        return flight, False

    def _await(self, flight: _Flight, coalesced: bool,
               deadline: float | None) -> EngineResult:
        if not flight.event.wait(timeout=deadline):
            raise ServeError(
                504, "deadline",
                f"request deadline of {deadline:.1f}s expired; the "
                "search continues and will be served from cache",
                detail={"fingerprint": flight.fingerprint})
        outcome = flight.outcome
        if isinstance(outcome, ServeError):
            raise outcome
        assert isinstance(outcome, EngineResult)
        return EngineResult(
            fingerprint=outcome.fingerprint, record=outcome.record,
            cached=outcome.cached, coalesced=coalesced,
            attempts=outcome.attempts)

    # -- dispatcher thread (all scheduling happens here) ----------------------

    def _run_dispatcher(self) -> None:
        down = ServeError(503, "draining",
                          "server shut down before the search finished")
        try:
            while not self._stop.is_set():
                self._drain_inbox()
                self._scheduler.cycle()
                with self._lock:
                    self._depth.set(len(self._scheduler))
                time.sleep(POLL_INTERVAL_SECONDS)
        except Exception as err:  # e.g. BlockingIOError: fork failed
            _log.exception("serve dispatcher stopped")
            down = ServeError(
                503, "dispatcher-down",
                "the search dispatcher stopped; this server can only "
                "answer cached requests",
                detail={"error": f"{type(err).__name__}: {err}"})
        finally:
            # Answer every remaining waiter rather than leaving HTTP
            # threads parked on events that will never fire, and refuse
            # every later flight the same way.
            with self._lock:
                self._down = down
                flights = list(self._flights.values())
            for flight in flights:
                self._finish(flight, down)

    def _drain_inbox(self) -> None:
        while True:
            try:
                flight = self._inbox.get_nowait()
            except queue.Empty:
                return
            # Adopt a finished result already on disk (server restart,
            # prior fleet run on the same state dir) — same content-hash
            # adoption rule as fleet resume; never touches the pool.
            doc = read_result(self.state_dir, flight.task.task_id)
            if doc is not None:
                self._succeed(flight, doc["record"])
            else:
                self._scheduler.submit(flight)

    def _on_success(self, flight: _Flight, doc: dict) -> None:
        with self._lock:
            self._searches.inc()
        self._succeed(flight, doc["record"])

    def _on_failure(self, flight: _Flight, kind: str, detail: str,
                    final: bool) -> None:
        with self._lock:
            if kind == "crash":
                self._crashes.inc()
            elif kind == "straggler":
                self.metrics.counter(
                    "serve_stragglers_killed_total",
                    "straggling serve workers SIGKILLed").inc()
            if not final:
                self._retries.inc()
        if final:
            entry = self.quarantine.add(
                flight.fingerprint, attempts=flight.attempts, kind=kind,
                detail=detail, label=flight.task.label)
            with self._lock:
                self._quarantined.inc()
            self._finish(flight, quarantined_error(
                flight.fingerprint, entry, degradable=True))

    def _succeed(self, flight: _Flight, record: Mapping[str, Any]) -> None:
        self.cache.put(flight.fingerprint, record)
        self._finish(
            flight,
            EngineResult(fingerprint=flight.fingerprint, record=dict(record),
                         attempts=flight.attempts))

    def _finish(self, flight: _Flight, outcome: Any) -> None:
        with self._lock:
            self._flights.pop(flight.fingerprint, None)
        flight.outcome = outcome
        flight.event.set()

    # -- lifecycle -----------------------------------------------------------

    def close(self, grace: float = 2.0) -> None:
        """Stop the dispatcher and the pool; flush persistent state.

        Call after draining: any flight still in the air is answered
        with a structured 503 so no waiter hangs forever.
        """
        self._stop.set()
        self._dispatcher.join(timeout=max(grace, 5.0))
        self._scheduler.pool.shutdown(grace)
        self.cache.flush()
        self.quarantine.flush()

    def __enter__(self) -> "SearchEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False
