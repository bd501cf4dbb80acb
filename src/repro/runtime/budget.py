"""Wall-clock / memory budgets and cooperative cancellation.

FlexFlow's MCMC baseline is explicitly time-budgeted and TensorOpt frames
strategy search as running under resource constraints; PaSE's DP is exact
but its runtime must be just as predictable.  A `RunBudget` bounds one
run's wall-clock time and DP memory; a `Cancellation` token carries the
SIGINT/SIGTERM request from the signal handler to the working code.

Neither object preempts anything.  The pipeline polls them at
*cooperative checkpoints* — between table-build tasks, reduction rounds,
DP vertices, and the chunks of a DP table too big for one — via
:func:`make_checkpoint`, so a run always stops where no partial state
escapes and its journal is consistent.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from ..core.dp import DEFAULT_MEMORY_BUDGET
from ..core.exceptions import DeadlineExceededError, RunInterrupted

if TYPE_CHECKING:  # pragma: no cover
    from .journal import SearchJournal

__all__ = ["RunBudget", "Cancellation", "make_checkpoint"]


@dataclass
class RunBudget:
    """Resource envelope for one hardened run.

    Parameters
    ----------
    deadline:
        Wall-clock seconds the whole pipeline may take; ``None`` means
        unbounded.  Measured from :meth:`start` (called automatically by
        the first :meth:`check`).
    memory_budget:
        DP byte budget forwarded to `find_best_strategy` (Table I's
        "OOM" accounting).
    """

    deadline: float | None = None
    memory_budget: int = DEFAULT_MEMORY_BUDGET
    started: float | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.deadline is not None and not self.deadline >= 0:
            raise ValueError(f"deadline={self.deadline} must be >= 0")
        if self.memory_budget <= 0:
            raise ValueError(
                f"memory_budget={self.memory_budget} must be positive")

    def start(self) -> "RunBudget":
        """Anchor the deadline clock (idempotent)."""
        if self.started is None:
            self.started = time.perf_counter()
        return self

    def elapsed(self) -> float:
        if self.started is None:
            return 0.0
        return time.perf_counter() - self.started

    def remaining(self) -> float:
        """Seconds left, ``inf`` when unbounded (may go negative)."""
        if self.deadline is None:
            return float("inf")
        return self.deadline - self.elapsed()

    @property
    def expired(self) -> bool:
        return self.remaining() <= 0.0

    def check(self, where: str = "") -> None:
        """Raise `DeadlineExceededError` once the deadline has passed."""
        self.start()
        if self.expired:
            raise DeadlineExceededError(
                f"run exceeded its {self.deadline:.3f}s deadline"
                + (f" at {where}" if where else ""),
                deadline_seconds=self.deadline,
                elapsed_seconds=self.elapsed(), where=where or None)


class Cancellation:
    """A sticky cancel flag set by signal handlers, polled by checkpoints.

    The handler only calls :meth:`set`; the pipeline raises
    `RunInterrupted` from :meth:`check` at its next cooperative
    checkpoint, which keeps every data structure (and the on-disk
    journal) consistent at the moment of unwinding.
    """

    def __init__(self) -> None:
        self._reason: str | None = None

    def set(self, reason: str) -> None:
        if self._reason is None:
            self._reason = reason

    @property
    def requested(self) -> bool:
        return self._reason is not None

    @property
    def reason(self) -> str | None:
        return self._reason

    def check(self, where: str = "") -> None:
        if self._reason is not None:
            raise RunInterrupted(
                f"run interrupted by {self._reason}"
                + (f" at {where}" if where else ""),
                signal_name=self._reason, where=where or None)


def make_checkpoint(budget: "RunBudget | None" = None,
                    cancellation: "Cancellation | None" = None,
                    journal: "SearchJournal | None" = None,
                    ) -> Callable[..., None]:
    """Build the cooperative checkpoint callable the pipeline threads
    through table construction, reduction, and the DP.

    Each call polls cancellation first (an interrupted run should report
    *interrupted*, not whichever deadline it also happened to cross),
    then the deadline, then snapshots progress into the journal
    (throttled internally, so calling per DP vertex is cheap).

    The callable accepts ``phase`` / ``step`` / ``total`` keywords, all
    optional, so call sites can attach as much context as they have.
    """

    def checkpoint(*, phase: str = "", step: int | None = None,
                   total: int | None = None) -> None:
        where = phase or "checkpoint"
        if step is not None:
            where = f"{phase}[{step}{'' if total is None else f'/{total}'}]"
        if cancellation is not None:
            cancellation.check(where)
        if budget is not None:
            budget.check(where)
        if journal is not None:
            journal.progress(phase=phase, step=step, total=total)

    return checkpoint
