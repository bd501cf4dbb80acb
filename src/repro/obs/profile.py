"""Ambient observability context: `activate`, `current_*`, `@profiled`.

The budget/journal/cache knobs change *behaviour* and therefore travel
explicitly through `RunContext` — but a tracer changes nothing, so
forcing every helper (baselines, experiment drivers) to grow a
``tracer=`` parameter would be pure plumbing.  Instead the active
tracer/metrics pair lives in `contextvars.ContextVar`s:

    with activate(tracer=tracer, metrics=metrics):
        run = execute_search(...)      # everything below sees them

``contextvars`` (not module globals) so concurrent searches in separate
threads — the resilience tests run them — each see their own context,
and the defaults (`NULL_TRACER` / `NULL_METRICS`) are restored on exit
even when the body raises.

`@profiled` wraps a function in a span named after it (override with
``@profiled("baseline.mcmc")``); with the default null tracer the
wrapper costs one ContextVar read and an empty context-manager enter,
which the overhead benchmark pins below 2% end to end.
"""

from __future__ import annotations

import contextlib
import functools
from contextvars import ContextVar
from typing import Any, Callable, Iterator, TypeVar, overload

from .metrics import Metrics, NullMetrics, NULL_METRICS
from .trace import Tracer, NullTracer, NULL_TRACER

__all__ = ["activate", "current_tracer", "current_metrics", "profiled",
           "tracer_of", "metrics_of"]

_F = TypeVar("_F", bound=Callable[..., Any])

_tracer_var: ContextVar["Tracer | NullTracer"] = ContextVar(
    "pase_tracer", default=NULL_TRACER)
_metrics_var: ContextVar["Metrics | NullMetrics"] = ContextVar(
    "pase_metrics", default=NULL_METRICS)


def current_tracer() -> "Tracer | NullTracer":
    """The tracer installed by the innermost `activate`, else no-op."""
    return _tracer_var.get()


def current_metrics() -> "Metrics | NullMetrics":
    """The metrics registry installed by `activate`, else no-op."""
    return _metrics_var.get()


def tracer_of(ctx: Any = None) -> "Tracer | NullTracer":
    """Resolve the tracer for a (duck-typed) `RunContext`.

    A context's ``tracer`` of ``None`` means *inherit the ambient one*,
    so instrumented core code works identically whether it was reached
    through `execute_search` (which activates the context's pair) or
    called directly with a bare context.
    """
    tracer = getattr(ctx, "tracer", None)
    return tracer if tracer is not None else _tracer_var.get()


def metrics_of(ctx: Any = None) -> "Metrics | NullMetrics":
    """Resolve the metrics registry for a (duck-typed) `RunContext`."""
    metrics = getattr(ctx, "metrics", None)
    return metrics if metrics is not None else _metrics_var.get()


@contextlib.contextmanager
def activate(tracer: "Tracer | NullTracer | None" = None,
             metrics: "Metrics | NullMetrics | None" = None,
             ) -> Iterator[None]:
    """Install ``tracer``/``metrics`` as the ambient pair for this scope.

    ``None`` leaves the corresponding slot at whatever is already
    active, so nested activations can override just one of the two.
    """
    tok_t = None if tracer is None else _tracer_var.set(tracer)
    tok_m = None if metrics is None else _metrics_var.set(metrics)
    try:
        yield
    finally:
        if tok_m is not None:
            _metrics_var.reset(tok_m)
        if tok_t is not None:
            _tracer_var.reset(tok_t)


@overload
def profiled(func: _F) -> _F: ...
@overload
def profiled(func: str, **attrs: Any) -> Callable[[_F], _F]: ...


def profiled(func=None, **attrs):
    """Wrap a function in a span on the ambient tracer.

    Bare (``@profiled``) the span is named after the function; called
    (``@profiled("baseline.mcmc", flavour="anneal")``) the string is the
    span name and keyword arguments become span attributes.
    """
    if isinstance(func, str) or func is None:
        name = func

        def deco(f: _F) -> _F:
            return _wrap(f, name or f.__qualname__, attrs)

        return deco
    return _wrap(func, func.__qualname__, attrs)


def _wrap(func: _F, name: str, attrs: dict[str, Any]) -> _F:
    @functools.wraps(func)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        with _tracer_var.get().span(name, **attrs):
            return func(*args, **kwargs)

    wrapper.__wrapped__ = func
    return wrapper  # type: ignore[return-value]
