"""Fault-tolerant fleet sweeps: shard the search over a work queue.

A *fleet* evaluates a declarative grid of strategy searches — models ×
machines × device counts × fault plans × flags — through a pool of
crash-isolated worker processes, each task a journalled
`execute_search` under its own per-task budget, all sharing one
multi-process-safe content-addressed table cache.

The robustness contract (see DESIGN.md §10):

* per-task retry with exponential backoff + deterministic jitter;
* poison-task quarantine after ``max_attempts`` (recorded, not fatal);
* worker heartbeats with straggler SIGKILL + reassignment;
* SIGINT/SIGTERM-safe shutdown (exit code 6, manifest flushed);
* crash-safe `FleetManifest` (temp + ``os.replace``) so a killed fleet
  resumes mid-sweep, with completed tasks replayed — the merged
  ``results.jsonl`` is byte-identical to an uninterrupted run.

CLI: ``pase sweep --spec SPEC.json --fleet-dir DIR --workers N``.
"""

from .manifest import MANIFEST_VERSION, FleetManifest
from .report import (
    SUMMARY_VERSION,
    FleetReport,
    format_fleet_report,
    merge_results,
    write_summary,
)
from .spec import SPEC_VERSION, SweepSpec, SweepSpecError, SweepTask
from .scheduler import DEFAULT_MAX_ATTEMPTS, DEFAULT_STRAGGLER_AFTER_SECONDS
from .supervisor import FleetSupervisor
from .worker import HEARTBEAT_INTERVAL_SECONDS

__all__ = [
    "SweepSpec",
    "SweepTask",
    "SweepSpecError",
    "SPEC_VERSION",
    "FleetManifest",
    "MANIFEST_VERSION",
    "FleetReport",
    "FleetSupervisor",
    "merge_results",
    "write_summary",
    "format_fleet_report",
    "SUMMARY_VERSION",
    "DEFAULT_MAX_ATTEMPTS",
    "DEFAULT_STRAGGLER_AFTER_SECONDS",
    "HEARTBEAT_INTERVAL_SECONDS",
]
