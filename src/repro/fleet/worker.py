"""The fleet worker: one task attempt, crash-only protocol.

Every dispatch runs :func:`run_task_attempt` inside a persistent pool
worker process (`repro.fleet.pool`).  The worker never reports back
over a pipe — pipes die with processes.  All communication is
crash-safe files under the task's directory
``<fleet_dir>/tasks/<task_id>/``:

``heartbeat.json``
    Re-written atomically every `HEARTBEAT_INTERVAL_SECONDS` by a
    daemon thread.  A stale heartbeat is how the supervisor detects a
    wedged or silently-dead worker and reassigns the task.
``result.json``
    Written atomically on success; carries the deterministic ``record``
    the merged results JSONL is built from (task, cost, strategy,
    optional fault-injected simulation) plus operational fields
    (elapsed seconds, attempt number) kept *out* of the record so
    resumed and fresh sweeps merge bit-identically.
``error.json``
    Written atomically on any caught failure, stamped with the attempt
    number, then the worker exits non-zero.  A worker that dies without
    writing either file (SIGKILL, ``os._exit``, segfault) is still
    handled: the scheduler sees the dead process and the missing result.

The search itself is a journalled `execute_search` under the task's own
`RunContext` — per-task wall-clock deadline and memory budget — whose
``cache`` is the fleet-wide shared `TableCache` (multi-process safe), so
identical (graph, machine, p, mode) cells across the sweep build their
cost tables exactly once.  This pool is the only place an on-disk table
store is opened: its long-lived workers hit the store's mmap memo,
where a one-shot process rebuilds faster than it stores.  A retried
task resumes its own journal when the previous attempt got far enough
to leave one.  The graph and configuration space come from
`benchmark_problem`, a process-wide memo that the serve engine's
fingerprints read too, so a worker forked from the fleet supervisor or
the serve daemon inherits every problem its parent already built.

Chaos hooks (``task.chaos``, see `repro.fleet.spec`) let the tests and
CI make a worker ``os._exit`` mid-task, raise, or wedge with heartbeats
suppressed — real process-level faults, not monkeypatched ones.
"""

from __future__ import annotations

import json
import os
import threading
import time
from functools import lru_cache
from pathlib import Path
from typing import Any, Mapping

from ..core.exceptions import (
    DeadlineExceededError,
    JournalError,
    SearchResourceError,
)
from ..obs.metrics import atomic_write_text
from .spec import SweepTask

__all__ = ["run_task_attempt", "prewarm_fork_template",
           "benchmark_problem", "task_dir", "read_json", "read_result",
           "HEARTBEAT_INTERVAL_SECONDS", "RESULT_VERSION"]

#: Seconds between heartbeat re-writes.
HEARTBEAT_INTERVAL_SECONDS = 0.25

#: Result/error file schema version.
RESULT_VERSION = 1


def task_dir(fleet_dir: str | os.PathLike, task_id: str) -> Path:
    return Path(fleet_dir) / "tasks" / task_id


def read_json(path: Path) -> dict[str, Any] | None:
    """Best-effort read of a worker artifact; None if absent/torn.

    Artifacts are written atomically, so a parse failure means the file
    predates this fleet layout — treated the same as missing.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError):
        return None


def read_result(fleet_dir: str | os.PathLike,
                task_id: str) -> dict[str, Any] | None:
    """The task's ``result.json`` when it holds this task's record.

    Task ids are content hashes, so a matching file *is* the answer,
    whichever attempt or process wrote it.
    """
    doc = read_json(task_dir(fleet_dir, task_id) / "result.json")
    if doc is None or doc.get("record", {}).get("task_id") != task_id:
        return None
    return doc


def _write_json(path: Path, payload: Mapping[str, Any]) -> None:
    atomic_write_text(path, json.dumps(payload, sort_keys=True, indent=2))


class _Heartbeat:
    """Daemon thread atomically re-writing the task's heartbeat file."""

    def __init__(self, path: Path, task_id: str, attempt: int) -> None:
        self.path = path
        self.task_id = task_id
        self.attempt = attempt
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name=f"heartbeat-{task_id}")

    def _beat(self) -> None:
        _write_json(self.path, {
            "task_id": self.task_id,
            "attempt": self.attempt,
            "pid": os.getpid(),
            "time": time.time(),
        })

    def _run(self) -> None:
        while not self._stop.wait(HEARTBEAT_INTERVAL_SECONDS):
            try:
                self._beat()
            except OSError:  # pragma: no cover - disk full etc.
                pass

    def start(self) -> None:
        self._beat()
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()


def _apply_chaos(task: SweepTask, attempt: int,
                 heartbeat: _Heartbeat) -> None:
    """Misbehave per the task's test-only chaos hook.

    ``attempts`` bounds which attempts misbehave (default: all of them,
    i.e. a poison task); ``{"kind": "exit", "attempts": 1}`` crashes
    only the first attempt, modelling a transient worker death.
    """
    chaos = task.chaos
    if chaos is None or attempt > int(chaos.get("attempts", 1 << 30)):
        return
    kind = chaos["kind"]
    if kind == "exit":
        # The moral equivalent of an OOM kill: no cleanup, no result.
        os._exit(int(chaos.get("code", 13)))
    if kind == "raise":
        raise RuntimeError(chaos.get("message", "chaos: injected failure"))
    if kind == "hang":
        # A wedged worker: stop heartbeating, then sleep well past any
        # straggler threshold so the supervisor must SIGKILL us.
        heartbeat.stop()
        time.sleep(float(chaos.get("seconds", 3600.0)))


@lru_cache(maxsize=8)
def benchmark_problem(model: str, p: int, mode: str):
    """The ``(graph, space)`` of one benchmark problem, memoized.

    The one place a benchmark problem is built, for fleet workers and
    serve fingerprints alike.  A persistent pool worker serves many
    tasks that differ only in seed/method; rebuilding the identical
    graph and configuration space per task is pure overhead.  Both
    objects are treated as immutable by the search, so sharing them
    across tasks and threads is safe.  `lru_cache` keeps its own state
    coherent under concurrent calls from serve handler threads, and
    holds no Python lock that a pool worker forking mid-call could
    inherit held.
    """
    from ..core.configs import ConfigSpace
    from ..models import BENCHMARKS

    graph = BENCHMARKS[model]()
    return graph, ConfigSpace.build(graph, p, mode=mode)


def prewarm_fork_template(tasks, fleet_dir: str | os.PathLike) -> int:
    """Warm the process-wide memos before pool workers fork.

    A persistent pool forks its workers from the supervisor, so
    anything memoized here is inherited by every worker for free —
    instead of each of N workers paying its own first-touch cost per
    distinct problem.  Builds each distinct ``(model, machine, p,
    mode)`` cell's problem and cost tables through the fleet-wide
    shared `TableCache`, leaving `benchmark_problem` and the cache's
    mmap memo hot.  Returns the number of cells warmed.  Failures are
    swallowed: prewarming is a pure optimisation and workers rebuild
    anything missing themselves.
    """
    from ..core.costmodel import CostModel
    from ..core.machine import MACHINES
    from ..core.tablecache import TableCache
    from ..runtime import RunContext

    cache = TableCache(Path(fleet_dir) / "table-cache")
    warmed = 0
    seen: set[tuple] = set()
    for task in tasks:
        key = (task.model, task.machine, task.p, task.mode)
        if key in seen:
            continue
        seen.add(key)
        try:
            graph, space = benchmark_problem(task.model, task.p, task.mode)
            ctx = RunContext(cache=cache)
            model = CostModel(MACHINES[task.machine])
            model.build_tables(graph, space, ctx=ctx)  # build + store
            model.build_tables(graph, space, ctx=ctx)  # load -> mmap memo
            warmed += 1
        except Exception:  # pragma: no cover - best-effort warm-up
            continue
    return warmed


def _run_task(task: SweepTask, attempt: int, fleet: Path,
              options: Mapping[str, Any]) -> dict[str, Any]:
    """Execute one task; returns the deterministic result record."""
    from ..core.dp import DEFAULT_MEMORY_BUDGET
    from ..core.machine import MACHINES
    from ..core.tablecache import TableCache
    from ..runtime import RunBudget, RunContext, SearchJournal
    from ..runtime.run import execute_search

    machine = MACHINES[task.machine]
    graph, space = benchmark_problem(task.model, task.p, task.mode)
    tdir = task_dir(fleet, task.task_id)
    ctx = RunContext(
        budget=RunBudget(
            deadline=options.get("task_deadline"),
            memory_budget=task.memory_budget or DEFAULT_MEMORY_BUDGET),
        cache=TableCache(fleet / "table-cache"),
        journal=SearchJournal(tdir / "journal"))
    # A previous attempt that reached the journal gets replayed/resumed
    # bit-identically; a fresh or fingerprint-mismatched journal starts
    # over (the journal overwrites itself on a fresh open).
    resume = (tdir / "journal" / "journal.json").is_file()
    try:
        outcome = execute_search(
            graph, space, machine, method=task.method, seed=task.seed,
            reduce=task.reduce, objective=task.objective,
            resilient=task.resilient, ctx=ctx, resume=resume)
    except JournalError:
        if not resume:
            raise
        outcome = execute_search(
            graph, space, machine, method=task.method, seed=task.seed,
            reduce=task.reduce, objective=task.objective,
            resilient=task.resilient, ctx=ctx, resume=False)
    result = outcome.result
    record: dict[str, Any] = {
        "task_id": task.task_id,
        "label": task.label,
        "task": task.to_dict(),
        "cost": result.cost,
        "method": result.method,
        "strategy": {n: list(c) for n, c in
                     result.strategy.assignment.items()},
    }
    if task.objective != "cost":
        # Frontier tasks record every non-dominated point (strategies
        # included) so sweep consumers can select under memory caps
        # without re-running the search.
        record["frontier"] = [
            {"cost": pt.cost, "peak_bytes": pt.peak_bytes,
             "strategy": {n: list(c) for n, c in
                          pt.strategy.assignment.items()}}
            for pt in result.frontier]
    if task.faults is not None:
        from ..cluster import simulate_step
        from ..resilience import FaultPlan

        # `SweepTask.from_dict` already validated the plan against p.
        rep = simulate_step(graph, result.strategy, machine, task.p,
                            faults=FaultPlan.from_dict(dict(task.faults)))
        record["sim"] = {
            "step_time": rep.step_time,
            "throughput": rep.throughput,
            "faults": task.faults_name or "faults",
        }
    return record


def run_task_attempt(task_dict: Mapping[str, Any], attempt: int,
                     fleet_dir: str, options: Mapping[str, Any]) -> bool:
    """Run one task attempt over the file protocol; True on success.

    The body of the pool's worker loop (`repro.fleet.pool`): heartbeat
    for the duration, apply chaos, run the search, and leave exactly one of
    ``result.json`` (success) or ``error.json`` (caught failure) behind.
    Task failures are *returned*, not raised — only process-killing
    faults (chaos ``os._exit``, a real crash) escape.
    """
    task = SweepTask.from_dict(dict(task_dict))
    tdir = task_dir(fleet_dir, task.task_id)
    tdir.mkdir(parents=True, exist_ok=True)
    heartbeat = _Heartbeat(tdir / "heartbeat.json", task.task_id, attempt)
    heartbeat.start()
    t0 = time.perf_counter()
    try:
        _apply_chaos(task, attempt, heartbeat)
        record = _run_task(task, attempt, Path(fleet_dir), options)
    except Exception as err:
        if isinstance(err, DeadlineExceededError):
            kind = "deadline"
        elif isinstance(err, SearchResourceError):
            kind = "resource"
        else:
            kind = "error"
        _write_json(tdir / "error.json", {
            "version": RESULT_VERSION,
            "task_id": task.task_id,
            "attempt": attempt,
            "kind": kind,
            "type": type(err).__name__,
            "detail": str(err),
        })
        heartbeat.stop()
        return False
    _write_json(tdir / "result.json", {
        "version": RESULT_VERSION,
        "record": record,
        "attempt": attempt,
        "elapsed_seconds": time.perf_counter() - t0,
    })
    heartbeat.stop()
    return True

