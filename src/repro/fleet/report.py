"""Fleet results merge, summary artifact, and human-readable report.

Two output files, two different contracts:

``results.jsonl``
    One line per **completed** task, in the spec's deterministic
    expansion order, each line the compact sorted-key JSON of the
    worker's deterministic ``record``.  Because the records exclude all
    wall-clock/operational fields, a sweep that crashed and resumed any
    number of times merges to a **byte-identical** file as the same
    sweep run uninterrupted — the property the chaos suite pins.
``summary.json``
    The operational story: state counts, retries, quarantines (with
    their last errors), stragglers killed, workers, wall seconds and
    searches/minute.  Varies run to run by construction; validated
    structurally by ``scripts/check_obs_schema.py``.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any

from ..obs.metrics import atomic_write_text
from .worker import read_json, task_dir

if TYPE_CHECKING:  # pragma: no cover
    from .manifest import FleetManifest
    from .spec import SweepTask

__all__ = ["FleetReport", "SUMMARY_VERSION", "merge_results",
           "write_summary", "format_fleet_report"]

#: Summary artifact schema version.
SUMMARY_VERSION = 1


@dataclass
class FleetReport:
    """What one supervisor run did: the in-memory face of the summary."""

    tasks_total: int = 0
    succeeded: int = 0
    quarantined: int = 0
    retries: int = 0
    stragglers_killed: int = 0
    worker_crashes: int = 0
    adopted: int = 0
    completed_this_run: int = 0
    wall_seconds: float = 0.0
    searches_per_minute: float = 0.0
    workers: int = 0
    workers_spawned: int = 0
    workers_reused: int = 0
    resumed: bool = False
    results_path: str | None = None
    summary_path: str | None = None
    manifest_path: str | None = None
    quarantined_tasks: list[dict[str, Any]] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """True when every task succeeded with zero quarantines."""
        return self.quarantined == 0 and self.succeeded == self.tasks_total


def merge_results(fleet_dir: str | Path, tasks: "list[SweepTask]",
                  manifest: "FleetManifest") -> Path:
    """Write ``results.jsonl`` from the completed tasks' records.

    Lines appear in spec expansion order regardless of completion
    order, retries, or resumes; the write is atomic so a crash during
    merge leaves the previous merge (or nothing), never a torn file.
    """
    fleet = Path(fleet_dir)
    lines: list[str] = []
    for task in tasks:
        if manifest.task_state(task.task_id) != "done":
            continue
        doc = read_json(task_dir(fleet, task.task_id) / "result.json")
        if doc is None or "record" not in doc:
            raise FileNotFoundError(
                f"task {task.task_id} is marked done but has no readable "
                f"result.json under {task_dir(fleet, task.task_id)}")
        lines.append(json.dumps(doc["record"], sort_keys=True,
                                separators=(",", ":")))
    out = fleet / "results.jsonl"
    atomic_write_text(out, "".join(line + "\n" for line in lines))
    return out


def write_summary(fleet_dir: str | Path, report: FleetReport,
                  fingerprint: str) -> Path:
    """Persist ``summary.json`` (atomic write)."""
    out = Path(fleet_dir) / "summary.json"
    payload = {k: v for k, v in asdict(report).items()
               if not k.endswith("_path")}
    payload.update(version=SUMMARY_VERSION, fingerprint=fingerprint,
                   generated_at=time.time(), results="results.jsonl")
    atomic_write_text(out, json.dumps(payload, indent=2, sort_keys=True))
    return out


def format_fleet_report(report: FleetReport) -> str:
    """Multi-line human summary printed by ``pase sweep``."""
    lines = [
        f"fleet: {report.succeeded}/{report.tasks_total} tasks succeeded "
        f"({report.workers} workers, {report.wall_seconds:.1f}s, "
        f"{report.searches_per_minute:.1f} searches/min)",
        f"fleet: persistent pool — {report.workers_spawned} "
        f"process(es) forked, {report.workers_reused} warm reuse(s)",
    ]
    if report.resumed:
        lines.append(
            f"fleet: resumed mid-sweep; {report.adopted} finished "
            f"result(s) adopted, {report.completed_this_run} task(s) run "
            "this session")
    ops = []
    if report.retries:
        ops.append(f"{report.retries} retr{_y(report.retries)}")
    if report.worker_crashes:
        ops.append(f"{report.worker_crashes} worker crash(es)")
    if report.stragglers_killed:
        ops.append(f"{report.stragglers_killed} straggler(s) killed")
    if ops:
        lines.append("fleet: " + ", ".join(ops))
    if report.quarantined:
        lines.append(
            f"fleet: {report.quarantined} task(s) QUARANTINED after "
            "exhausting retries:")
        for q in report.quarantined_tasks:
            err = q.get("last_error") or {}
            lines.append(
                f"fleet:   - {q.get('label', q['task_id'])}: "
                f"{err.get('kind', '?')}: {err.get('detail', '?')}")
    else:
        lines.append("fleet: zero quarantines")
    if report.results_path:
        lines.append(f"fleet: merged results at {report.results_path}")
    if report.summary_path:
        lines.append(f"fleet: summary at {report.summary_path}")
    return "\n".join(lines)


def _y(n: int) -> str:
    return "y" if n == 1 else "ies"
