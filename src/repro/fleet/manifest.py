"""Crash-safe fleet manifest: the supervisor's on-disk brain.

The `FleetManifest` is to a sweep what `SearchJournal` is to one search:
a single JSON snapshot (``manifest.json`` under the fleet directory)
written by `repro.obs.metrics.atomic_write_text` (temp file, fsync,
``os.replace``), so a supervisor killed at any instant — including
``kill -9`` — leaves either the old snapshot or the new one, never a
torn file.

It records the spec fingerprint (resume against an edited spec fails
loudly), one state machine per task, and fleet-level counters.  Task
states::

    pending ──dispatch──> running ──ok──────────> done
        ^                    │
        │                    ├─crash/error/straggler─(attempts < max)─┐
        └────────────────────┴<───────────────────────────────────────┘
                             └─(attempts >= max)──> quarantined

On resume, ``running`` tasks are demoted back to ``pending`` (the
process that owned them died with the fleet); ``done`` and
``quarantined`` states survive verbatim, which is what makes a resumed
sweep's merged results bit-identical to an uninterrupted run — finished
work is *replayed from the manifest and per-task result files*, never
recomputed.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Any

from ..core.exceptions import JournalError
from ..obs.metrics import atomic_write_text
from ..runtime.journal import read_snapshot

__all__ = ["FleetManifest", "MANIFEST_VERSION", "TASK_STATES"]

#: Manifest layout version; bump whenever the stored schema changes.
MANIFEST_VERSION = 1

#: Every state a task slot can hold.
TASK_STATES = ("pending", "running", "done", "quarantined")


class FleetManifest:
    """One sweep's crash-safe state under ``<fleet_dir>/manifest.json``."""

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)
        self.path = self.root / "manifest.json"
        self.state: dict[str, Any] | None = None
        self._batching = False
        self._batch_dirty = False

    @contextmanager
    def batch(self):
        """Coalesce state-transition flushes into one snapshot write.

        Inside the context every `flush` is deferred; leaving it writes
        a single snapshot if anything changed.  The supervisor wraps
        each poll-loop tick in this so a wide tick (N reaps + N
        dispatches) costs one atomic write instead of 2N.  Crash
        recovery is unaffected: a supervisor killed mid-tick resumes
        from the previous snapshot, and any finished-but-unrecorded
        tasks are re-adopted from their ``result.json`` files.
        """
        self._batching = True
        try:
            yield
        finally:
            self._batching = False
            if self._batch_dirty:
                self._batch_dirty = False
                self.flush()

    # -- lifecycle -----------------------------------------------------------

    def open(self, fingerprint: str, task_ids: list[str], *,
             resume: bool = False) -> bool:
        """Start (or resume) a fleet; returns True when resuming.

        A fresh open overwrites any existing manifest.  ``resume=True``
        requires an existing manifest whose spec fingerprint and task
        set match; any ``running`` tasks are demoted to ``pending``
        (their worker died with the previous supervisor).
        """
        if resume:
            state = read_snapshot(self.path, "fleet manifest",
                                  MANIFEST_VERSION)
            if state["fingerprint"] != fingerprint:
                raise JournalError(
                    f"fleet manifest at {self.path} was written for a "
                    "different sweep spec (fingerprint mismatch); re-run "
                    "without --resume to start fresh")
            if set(state["tasks"]) != set(task_ids):
                raise JournalError(
                    f"fleet manifest at {self.path} tracks a different "
                    "task set; re-run without --resume to start fresh")
            reassigned = 0
            for rec in state["tasks"].values():
                if rec["state"] == "running":
                    rec["state"] = "pending"
                    reassigned += 1
            state["counters"]["resumes"] = \
                state["counters"].get("resumes", 0) + 1
            state["counters"]["reassigned_on_resume"] = \
                state["counters"].get("reassigned_on_resume", 0) + reassigned
            self.state = state
            self.flush()
            return True
        self.state = {
            "version": MANIFEST_VERSION,
            "fingerprint": fingerprint,
            "tasks": {tid: {"state": "pending", "attempts": 0}
                      for tid in task_ids},
            "counters": {"retries": 0, "stragglers_killed": 0,
                         "worker_crashes": 0, "resumes": 0,
                         "reassigned_on_resume": 0},
        }
        self.flush()
        return False

    def flush(self) -> None:
        """Atomically persist the snapshot (`atomic_write_text`); inside
        `batch`, deferred to its end."""
        if self.state is None:
            return
        if self._batching:
            self._batch_dirty = True
            return
        atomic_write_text(self.path,
                          json.dumps(self.state, indent=2, sort_keys=True))

    # -- task state machine --------------------------------------------------

    def task(self, task_id: str) -> dict[str, Any]:
        assert self.state is not None, "manifest not opened"
        return self.state["tasks"][task_id]

    def task_state(self, task_id: str) -> str:
        return str(self.task(task_id)["state"])

    def mark_running(self, task_id: str, *, pid: int) -> None:
        rec = self.task(task_id)
        rec["state"] = "running"
        rec["attempts"] = int(rec["attempts"]) + 1
        rec["pid"] = pid
        self.flush()

    def mark_done(self, task_id: str, *, seconds: float) -> None:
        rec = self.task(task_id)
        rec["state"] = "done"
        rec["seconds"] = float(seconds)
        rec.pop("pid", None)
        self.flush()

    def mark_failed(self, task_id: str, *, detail: str, kind: str,
                    max_attempts: int) -> str:
        """Record one failed attempt; returns the resulting state.

        ``kind`` labels the failure ("crash", "error", "straggler",
        "deadline") for the report.  The task goes back to ``pending``
        until it has burned ``max_attempts`` attempts, then is
        quarantined — recorded, skipped, never fatal to the fleet.
        """
        assert self.state is not None
        rec = self.task(task_id)
        rec.pop("pid", None)
        rec["last_error"] = {"kind": kind, "detail": detail[:500]}
        counters = self.state["counters"]
        if kind == "crash":
            counters["worker_crashes"] += 1
        elif kind == "straggler":
            counters["stragglers_killed"] += 1
        if int(rec["attempts"]) >= max_attempts:
            rec["state"] = "quarantined"
        else:
            rec["state"] = "pending"
            counters["retries"] += 1
        self.flush()
        return str(rec["state"])

    # -- queries -------------------------------------------------------------

    def in_state(self, *states: str) -> list[str]:
        """Task ids currently in any of ``states`` (manifest order)."""
        assert self.state is not None, "manifest not opened"
        return [tid for tid, rec in self.state["tasks"].items()
                if rec["state"] in states]

    def counts(self) -> dict[str, int]:
        """State -> task count, plus the fleet counters."""
        assert self.state is not None, "manifest not opened"
        out = {s: 0 for s in TASK_STATES}
        for rec in self.state["tasks"].values():
            out[rec["state"]] += 1
        out.update({k: int(v) for k, v in self.state["counters"].items()})
        return out

    @property
    def counters(self) -> dict[str, int]:
        assert self.state is not None, "manifest not opened"
        return self.state["counters"]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FleetManifest {self.path}>"
