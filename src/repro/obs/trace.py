"""Nested-span tracing for the strategy-search pipeline.

FlexFlow and TensorOpt both credit their search-time claims to per-phase
profiling of the strategy search itself; this module gives PaSE the same
visibility without adding a dependency or slowing the hot path.  A
`Tracer` emits **spans** — named, attributed intervals that nest by
lexical scope::

    with tracer.span("dp", vertices=n):
        for i in range(n):
            with tracer.span("dp.vertex", name=seq.name(i)):
                ...

Spans are recorded on *close* (children before parents) both in memory
and, when a path is given, as one JSON line per span in a trace file.
The writer is crash-safe in the same spirit as the run journal's
atomic snapshots (`repro.runtime.journal`): every record is a complete
line flushed before the next span starts, so a crash at any instant
leaves a valid prefix plus at most one torn final line, which
:func:`read_trace` detects and drops.  Whole-file artifacts derived
from a trace (metric exports) go through the journal's atomic writer
itself, `repro.obs.metrics.atomic_write_text`.

The default tracer everywhere is the module-level `NULL_TRACER`, whose
``span`` returns one shared no-op context manager — the instrumented hot
paths stay bit-identical and unmeasurably slower (pinned by
``benchmarks/bench_obs.py``).
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Callable, Iterable, Mapping, Sequence

__all__ = [
    "TRACE_VERSION",
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "read_trace",
    "span_tree",
    "format_trace_summary",
]

#: Trace file schema version; bump whenever the record layout changes.
TRACE_VERSION = 1


def _jsonable(attrs: Mapping[str, Any]) -> dict[str, Any]:
    """Coerce span attributes to JSON-safe scalars (repr for the rest)."""
    out: dict[str, Any] = {}
    for key, val in attrs.items():
        if isinstance(val, (bool, int, float, str)) or val is None:
            out[str(key)] = val
        else:
            out[str(key)] = repr(val)
    return out


class Span:
    """One open interval of a `Tracer`; a context manager.

    Attributes set at open time (``tracer.span(name, **attrs)``) or later
    via :meth:`set` land in the record's ``attrs``.  An exception
    unwinding through the span stamps ``attrs["error"]`` with the
    exception type, so traces of failed runs show *where* they failed.
    """

    __slots__ = ("_tracer", "name", "attrs", "span_id", "parent_id", "start")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict[str, Any],
                 span_id: int, parent_id: int | None, start: float) -> None:
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = start

    def set(self, **attrs: Any) -> "Span":
        """Attach attributes to the span before it closes."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self._tracer._finish(self)
        return False


class _NullSpan:
    """The shared no-op span: enter/exit/set all do nothing."""

    __slots__ = ()

    def set(self, **attrs: Any) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Default no-op tracer: zero allocation per span, nothing recorded.

    Duck-type compatible with `Tracer` (``enabled`` / ``span`` /
    ``records`` / ``close``), so call sites never branch on the type —
    only optionally on ``enabled`` when skipping work that exists purely
    to feed the span (string formatting, counts).
    """

    enabled = False
    path = None
    records: tuple = ()

    def span(self, name: str, /, **attrs: Any) -> _NullSpan:
        return _NULL_SPAN

    def close(self) -> None:
        pass

    def summary(self) -> str:
        return "trace: disabled"

    def __enter__(self) -> "NullTracer":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


#: The process-wide default tracer (see module docstring).
NULL_TRACER = NullTracer()


class Tracer:
    """Records nested spans in memory and, optionally, to a JSONL file.

    Parameters
    ----------
    path:
        Trace file to (over)write, one JSON record per line: a ``meta``
        header followed by ``span`` records in close order.  ``None``
        keeps the trace in memory only (``tracer.records``), which is
        what the CLI's ``-v`` summary uses when ``--trace`` is absent.
    clock:
        Monotonic time source; spans store offsets from tracer creation,
        so records are machine-relocatable and never go backwards.
    """

    enabled = True

    def __init__(self, path: "str | os.PathLike | None" = None, *,
                 clock: Callable[[], float] = time.perf_counter) -> None:
        self.path = None if path is None else os.fspath(path)
        self._clock = clock
        self._t0 = clock()
        self.records: list[dict[str, Any]] = []
        self._stack: list[int] = []
        self._next_id = 1
        self._fh = None
        if self.path is not None:
            parent = os.path.dirname(self.path)
            if parent:
                os.makedirs(parent, exist_ok=True)
            self._fh = open(self.path, "w", encoding="utf-8")
            self._emit({
                "kind": "meta",
                "version": TRACE_VERSION,
                "unix_time": time.time(),
                "clock": getattr(clock, "__name__", str(clock)),
            })

    # -- span lifecycle ------------------------------------------------------

    def span(self, name: str, /, **attrs: Any) -> Span:
        """Open a child span of the innermost open span.

        ``name`` is positional-only so spans can carry a ``name=``
        attribute (per-vertex DP spans name the vertex that way).
        """
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        return Span(self, str(name), dict(attrs), span_id, parent,
                    self._clock() - self._t0)

    def _finish(self, span: Span) -> None:
        end = self._clock() - self._t0
        # Exception unwinding can close an outer span while inner spans
        # were abandoned un-exited; drop the abandoned frames.
        while self._stack and self._stack[-1] != span.span_id:
            self._stack.pop()
        if self._stack:
            self._stack.pop()
        rec: dict[str, Any] = {
            "kind": "span",
            "id": span.span_id,
            "parent": span.parent_id,
            "name": span.name,
            "start": span.start,
            "end": end,
            "seconds": end - span.start,
        }
        if span.attrs:
            rec["attrs"] = _jsonable(span.attrs)
        self.records.append(rec)
        self._emit(rec)

    def _emit(self, rec: dict[str, Any]) -> None:
        if self._fh is None:
            return
        self._fh.write(json.dumps(rec, sort_keys=True) + "\n")
        # One complete line per record, flushed: a crash leaves a valid
        # prefix (plus at most one torn tail line `read_trace` drops).
        self._fh.flush()

    # -- lifecycle / presentation -------------------------------------------

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def summary(self) -> str:
        return format_trace_summary(self.records)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Tracer spans={len(self.records)} "
                f"path={self.path or 'memory'}>")


# ---------------------------------------------------------------------------
# Reading and presenting traces
# ---------------------------------------------------------------------------

def read_trace(path: "str | os.PathLike") -> list[dict[str, Any]]:
    """Load a JSONL trace written by `Tracer`.

    Returns every record (``meta`` first, then spans in close order).  A
    torn **final** line — the signature of a crash mid-write — is
    silently dropped; a malformed line anywhere else raises
    ``ValueError``, because that means the file was corrupted rather
    than merely truncated.
    """
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    records: list[dict[str, Any]] = []
    for lineno, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError:
            if lineno == len(lines) - 1:
                break  # torn tail from a crash mid-write
            raise ValueError(
                f"{os.fspath(path)}:{lineno + 1}: malformed trace line")
    return records


def span_tree(records: Iterable[Mapping[str, Any]]) -> list[dict[str, Any]]:
    """Reconstruct the span forest from flat records.

    Returns the roots (spans whose parent is ``None`` **or** was never
    recorded — the parent of an interrupted run's last spans may be the
    torn tail line), each a dict with a ``children`` list; siblings are
    ordered by start time.
    """
    spans = [dict(r) for r in records if r.get("kind") == "span"]
    by_id: dict[int, dict[str, Any]] = {}
    for rec in spans:
        rec["children"] = []
        by_id[rec["id"]] = rec
    roots: list[dict[str, Any]] = []
    for rec in spans:
        parent = by_id.get(rec.get("parent"))
        if parent is None:
            roots.append(rec)
        else:
            parent["children"].append(rec)
    for rec in spans:
        rec["children"].sort(key=lambda r: r["start"])
    roots.sort(key=lambda r: r["start"])
    return roots


def format_trace_summary(records: Sequence[Mapping[str, Any]]) -> str:
    """Per-phase breakdown table of a trace (the CLI's ``-v`` output).

    Aggregates spans by name: count, total self-inclusive seconds, and
    share of the run (the union of root spans).
    """
    spans = [r for r in records if r.get("kind") == "span"]
    if not spans:
        return "trace: no spans recorded"
    roots = span_tree(spans)
    total = sum(r["seconds"] for r in roots) or float("nan")
    agg: dict[str, list[float]] = {}
    for rec in spans:
        ent = agg.setdefault(rec["name"], [0, 0.0])
        ent[0] += 1
        ent[1] += rec["seconds"]
    rows = sorted(agg.items(), key=lambda kv: -kv[1][1])
    name_w = max(len("span"), max(len(n) for n in agg))
    lines = [f"trace summary ({total:.3f}s total, {len(spans)} spans)",
             f"  {'span'.ljust(name_w)}  count    seconds       %"]
    for name, (count, seconds) in rows:
        share = 100.0 * seconds / total
        lines.append(f"  {name.ljust(name_w)}  {count:5d}  {seconds:9.3f}"
                     f"  {share:6.1f}")
    return "\n".join(lines)
