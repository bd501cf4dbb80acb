"""`RunContext`: the one bundle replacing the loose runtime kwargs.

`RunContext` bundles the run-scoped knobs — ``jobs``, ``cache``,
``budget``, ``cancellation``, ``journal``, ``checkpoint``, plus the
observability pair — so no layer threads them one by one.  Build one
per run, hand it to `execute_search` (or directly to
`CostModel.build_tables` / `find_best_strategy`), and every phase sees
the same deadlines, journal, tracer, and metrics.

The split between *explicit* and *ambient* is deliberate:

* knobs that change **behaviour** (budget, cancellation, journal, jobs,
  cache, checkpoint) travel only inside the context — nothing consults
  a global to decide how to compute;
* the observability pair changes **nothing**, so ``tracer``/``metrics``
  of ``None`` (the default) inherit whatever `repro.obs.activate`
  installed, letting un-plumbed helpers (baselines, experiment drivers)
  still land in the right trace.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable

from ..obs.profile import activate, metrics_of
from .budget import Cancellation, RunBudget, make_checkpoint

if TYPE_CHECKING:  # pragma: no cover
    from ..obs.metrics import Metrics
    from ..obs.trace import Tracer
    from .journal import SearchJournal

__all__ = ["RunContext"]


@dataclass
class RunContext:
    """Everything one hardened run carries besides the problem itself.

    Parameters
    ----------
    budget:
        Wall-clock deadline + DP memory budget (`RunBudget`); ``None``
        means unbounded with the default memory budget.
    cancellation:
        Sticky SIGINT/SIGTERM token (pair with `trap_signals`).
    journal:
        Crash-safe `SearchJournal` for bit-identical ``--resume``.
    tracer, metrics:
        Observability pair.  ``None`` inherits the ambient pair
        installed by `repro.obs.activate` (no-ops by default); pass
        `repro.obs.NULL_TRACER` / `NULL_METRICS` to explicitly silence
        an ambient pair.
    jobs, cache:
        Table-construction parallelism and on-disk `TableCache`, as in
        `CostModel.build_tables`.  ``jobs`` accepts a worker count
        (``"auto"`` backend selection) or a backend spelling such as
        ``"serial"`` or ``"threads:4"``.
    checkpoint:
        Explicit cooperative-poll callable overriding the one composed
        from ``budget``/``cancellation``/``journal`` — used by code that
        already holds a composed checkpoint (e.g. the resilient ladder's
        ``checkpoint=`` keyword) and by tests injecting failures at exact steps.
    """

    budget: "RunBudget | None" = None
    cancellation: "Cancellation | None" = None
    journal: "SearchJournal | None" = None
    tracer: "Tracer | None" = None
    metrics: "Metrics | None" = None
    jobs: int | str | None = None
    cache: object | None = None
    checkpoint: Callable[..., None] | None = None

    # -- derived accessors ---------------------------------------------------

    @property
    def memory_budget(self) -> int:
        from ..core.dp import DEFAULT_MEMORY_BUDGET

        if self.budget is None:
            return DEFAULT_MEMORY_BUDGET
        return self.budget.memory_budget

    def make_checkpoint(self) -> Callable[..., None] | None:
        """The cooperative poll the phases thread through their loops.

        Returns the explicit ``checkpoint`` override when set, else a
        `make_checkpoint` composition of budget → cancellation → journal
        — instrumented with the context's metrics (poll count + latency
        histogram) when a real registry is active — or ``None`` when
        there is nothing to poll.
        """
        if self.checkpoint is not None:
            return self.checkpoint
        if (self.budget is None and self.cancellation is None
                and self.journal is None):
            return None
        base = make_checkpoint(self.budget, self.cancellation, self.journal)
        metrics = metrics_of(self)
        if not metrics.enabled:
            return base
        polls = metrics.counter(
            "checkpoint_polls_total", "cooperative checkpoint polls")
        latency = metrics.histogram(
            "checkpoint_poll_seconds", "checkpoint poll latency (seconds)")

        def instrumented(**kwargs) -> None:
            t0 = time.perf_counter()
            try:
                base(**kwargs)
            finally:
                polls.inc()
                latency.observe(time.perf_counter() - t0)

        return instrumented

    def observe(self):
        """Install this context's tracer/metrics as the ambient pair.

        ``None`` slots leave the current ambient value in place (see
        `repro.obs.activate`), so a default context is a no-op scope.
        """
        return activate(tracer=self.tracer, metrics=self.metrics)

    def with_overrides(self, **changes) -> "RunContext":
        """Dataclass ``replace`` spelled as a method, for call sites that
        need a one-field variant (e.g. swapping the cache for a
        journal's embedded store)."""
        return replace(self, **changes)

    def started(self) -> "RunContext":
        """Anchor the budget's deadline clock (idempotent); returns self."""
        if self.budget is not None:
            self.budget.start()
        return self
