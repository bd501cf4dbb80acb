"""Crash-safe search journal: periodic phase snapshots, atomic writes.

A `SearchJournal` makes an interrupted run resumable *bit-identically*:

* ``journal.json`` records the problem **fingerprint** (table digest,
  method, budgets — everything the answer depends on), per-phase
  completion markers, degradation events, a throttled progress snapshot
  (current phase / DP vertex), and — once the search finishes — the full
  `SearchResult` (strategy, cost, stats).

``journal.json`` is the journal's only file.  A resume rebuilds the cost
tables, and the build is deterministic, so the resumed search answers
bit-identically.

Every write goes through `repro.obs.metrics.atomic_write_text` (temp
file in the journal directory, fsync, ``os.replace``), so a crash at any
instant leaves either the old snapshot or the new one — never a torn
file.  Resuming validates the fingerprint and
raises `JournalError` on any mismatch rather than silently answering a
different question.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any

from ..core.exceptions import JournalError
from ..core.strategy import FrontierPoint, SearchResult, Strategy
from ..obs.metrics import atomic_write_text

__all__ = ["SearchJournal", "JOURNAL_VERSION", "read_snapshot"]

#: Journal layout version; bump whenever the stored schema changes.
JOURNAL_VERSION = 1

#: Minimum seconds between on-disk progress snapshots (checkpoints fire
#: per DP vertex; rewriting the journal that often would dominate small
#: searches).
PROGRESS_INTERVAL_SECONDS = 0.5


def read_snapshot(path: Path, noun: str, version: int) -> dict[str, Any]:
    """The JSON snapshot at ``path`` that an `atomic_write_text` left.

    Raises `JournalError` naming the ``noun`` (``"journal"``, ``"fleet
    manifest"``) when the file is missing, unreadable, or not at layout
    ``version``.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            state = json.load(fh)
    except FileNotFoundError:
        raise JournalError(f"no {noun} to resume at {path}") from None
    except (OSError, json.JSONDecodeError) as err:
        raise JournalError(f"{noun} at {path} is unreadable: {err}") from err
    if not isinstance(state, dict) or state.get("version") != version:
        raise JournalError(
            f"{noun} at {path} has unsupported version "
            f"{state.get('version') if isinstance(state, dict) else '?'}")
    return state


def _normalize(fingerprint: dict) -> dict:
    """JSON round-trip so in-memory and reloaded fingerprints compare
    equal (tuples become lists, ints stay ints)."""
    return json.loads(json.dumps(fingerprint, sort_keys=True))


class SearchJournal:
    """One resumable run's on-disk state under a journal directory."""

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)
        self.path = self.root / "journal.json"
        self.state: dict[str, Any] | None = None
        self._last_progress_write = 0.0

    # -- lifecycle -----------------------------------------------------------

    def open(self, fingerprint: dict, *, resume: bool = False) -> bool:
        """Start (or resume) a journalled run; True when resuming.

        A fresh open overwrites any previous journal for the directory.
        ``resume=True`` requires an existing journal whose fingerprint
        matches — resuming a journal written for a different model /
        machine / budget would silently answer a different question, so
        that raises `JournalError` instead.
        """
        fingerprint = _normalize(fingerprint)
        if resume:
            state = read_snapshot(self.path, "journal", JOURNAL_VERSION)
            if state["fingerprint"] != fingerprint:
                raise JournalError(
                    f"journal at {self.path} was written for a different "
                    "problem (fingerprint mismatch); re-run without --resume "
                    "to start fresh")
            self.state = state
            return True
        self.state = {
            "version": JOURNAL_VERSION,
            "fingerprint": fingerprint,
            "phases": {},
            "events": [],
            "progress": {},
        }
        self.flush()
        return False

    def flush(self) -> None:
        """Atomically persist the current snapshot (`atomic_write_text`)."""
        if self.state is None:
            return
        atomic_write_text(self.path,
                          json.dumps(self.state, indent=2, sort_keys=True))

    # -- phase bookkeeping ---------------------------------------------------

    def phase(self, name: str) -> dict[str, Any] | None:
        if self.state is None:
            return None
        return self.state["phases"].get(name)

    def phase_done(self, name: str, **data: Any) -> None:
        """Mark a phase complete (flushed immediately — phase boundaries
        are exactly the points a resume must be able to trust)."""
        assert self.state is not None, "journal not opened"
        self.state["phases"][name] = {"done": True, **_normalize(data)}
        self.flush()

    def event(self, kind: str, detail: str) -> None:
        """Record one degradation/quarantine/retry event (flushed)."""
        assert self.state is not None, "journal not opened"
        self.state["events"].append({"kind": kind, "detail": detail})
        self.flush()

    @property
    def events(self) -> list[dict[str, str]]:
        if self.state is None:
            return []
        return list(self.state["events"])

    def progress(self, *, phase: str = "", step: int | None = None,
                 total: int | None = None) -> None:
        """Throttled progress snapshot (cheap enough to call per DP
        vertex; writes at most every `PROGRESS_INTERVAL_SECONDS`)."""
        if self.state is None:
            return
        self.state["progress"] = {"phase": phase, "step": step,
                                  "total": total}
        now = time.monotonic()
        if now - self._last_progress_write >= PROGRESS_INTERVAL_SECONDS:
            self._last_progress_write = now
            self.flush()

    # -- results -------------------------------------------------------------

    def record_result(self, result: SearchResult) -> None:
        """Journal the finished search so a resume replays it verbatim.

        The Pareto frontier is stored only when the result carries one
        (``objective="frontier"`` runs); scalar runs journal exactly the
        pre-frontier schema, so existing journals replay unchanged and
        their length-1 frontier is re-synthesized on replay instead.
        """
        assert self.state is not None, "journal not opened"
        rec = {
            "done": True,
            "method": result.method,
            "cost": result.cost,
            "elapsed": result.elapsed,
            "stats": _normalize(dict(result.stats)),
            "strategy": json.loads(result.strategy.to_json()),
        }
        if result.frontier:
            rec["frontier"] = [
                {"cost": pt.cost, "peak_bytes": pt.peak_bytes,
                 "strategy": json.loads(pt.strategy.to_json())}
                for pt in result.frontier]
        self.state["phases"]["search"] = rec
        self.flush()

    def load_result(self) -> SearchResult | None:
        """The journalled `SearchResult`, or None if the search never
        finished.  Floats round-trip through JSON exactly (repr-based),
        so the replayed cost is bit-identical to the recorded one."""
        rec = self.phase("search")
        if not rec or not rec.get("done"):
            return None
        strategy = Strategy({n: tuple(c) for n, c in rec["strategy"].items()})
        frontier = tuple(
            FrontierPoint(
                cost=float(p["cost"]), peak_bytes=float(p["peak_bytes"]),
                strategy=Strategy(
                    {n: tuple(c) for n, c in p["strategy"].items()}))
            for p in rec.get("frontier", ()))
        return SearchResult(
            strategy=strategy,
            cost=float(rec["cost"]),
            elapsed=float(rec["elapsed"]),
            method=str(rec["method"]),
            stats={k: float(v) for k, v in rec["stats"].items()},
            frontier=frontier,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SearchJournal {self.path}>"
