"""Exception hierarchy for the PaSE reproduction."""

from __future__ import annotations


class PaseError(Exception):
    """Base class for all library-specific errors."""


class GraphError(PaseError):
    """Raised for malformed computation graphs (dangling edges, shape
    mismatches between producer and consumer tensors, duplicate names)."""


class ConfigError(PaseError):
    """Raised for invalid parallelization configurations (wrong arity,
    non-positive split factors, product exceeding the device count)."""


class StrategyError(PaseError):
    """Raised for invalid parallelization strategies (missing nodes,
    configurations inconsistent with the graph)."""


class SearchResourceError(PaseError):
    """Raised when a strategy search exceeds its memory budget.

    This is the deterministic stand-in for the out-of-memory failures the
    paper reports for the breadth-first baseline in Table I: instead of
    letting the process die, searches account the DP table cells they are
    about to allocate against a byte budget and raise this error.
    """

    def __init__(self, message: str, *, requested_bytes: int | None = None,
                 budget_bytes: int | None = None) -> None:
        super().__init__(message)
        self.requested_bytes = requested_bytes
        self.budget_bytes = budget_bytes

    def __str__(self) -> str:
        base = super().__str__()
        if self.requested_bytes is not None or self.budget_bytes is not None:
            req = "?" if self.requested_bytes is None \
                else f"{self.requested_bytes:,}"
            bud = "?" if self.budget_bytes is None \
                else f"{self.budget_bytes:,}"
            return f"{base} [requested_bytes={req}, budget_bytes={bud}]"
        return base


class DeadlineExceededError(PaseError):
    """Raised when a run blows through its wall-clock deadline.

    Searches under a `repro.runtime.RunBudget` poll the budget at
    cooperative checkpoints (between table-build tasks, reduction rounds,
    DP vertices, and the chunks of a multi-chunk DP table); the first
    poll past the deadline raises this error so the run stops cleanly
    instead of being killed.
    """

    def __init__(self, message: str, *, deadline_seconds: float | None = None,
                 elapsed_seconds: float | None = None,
                 where: str | None = None) -> None:
        super().__init__(message)
        self.deadline_seconds = deadline_seconds
        self.elapsed_seconds = elapsed_seconds
        self.where = where


class RunInterrupted(PaseError):
    """Raised at a cooperative checkpoint after SIGINT/SIGTERM.

    The signal handler only sets a flag (`repro.runtime.Cancellation`);
    the working code observes it at the next checkpoint, flushes the
    search journal, and unwinds with this exception so the CLI can exit
    with its documented interrupted-with-journal code.
    """

    def __init__(self, message: str, *, signal_name: str | None = None,
                 where: str | None = None) -> None:
        super().__init__(message)
        self.signal_name = signal_name
        self.where = where


class JournalError(PaseError):
    """Raised for unusable search journals (missing or corrupt journal
    file on ``--resume``, or a journal written for a different problem
    fingerprint than the one being resumed)."""


class SimulationError(PaseError):
    """Raised for inconsistent cluster-simulation inputs (unplaced shards,
    unknown devices, dependency cycles in the task graph)."""


class FaultPlanError(SimulationError):
    """Raised for invalid fault-injection plans (devices outside the
    cluster, non-finite downtimes, slowdown factors below 1, malformed
    plan files)."""
