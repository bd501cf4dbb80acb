"""Simulation traces and utilization summaries."""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

__all__ = ["TraceRecord", "utilization", "busy_time_by_kind",
           "render_gantt", "critical_path", "critical_path_by_kind"]


@dataclass(frozen=True)
class TraceRecord:
    """One scheduled task occurrence."""

    tid: int
    kind: str
    label: str
    resources: tuple[tuple[str, int], ...]
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


def utilization(trace: list[TraceRecord], makespan: float) -> dict[tuple[str, int], float]:
    """Busy fraction per resource over the step."""
    busy: dict[tuple[str, int], float] = defaultdict(float)
    for rec in trace:
        for r in rec.resources:
            busy[r] += rec.duration
    if makespan <= 0:
        return {r: 0.0 for r in busy}
    return {r: min(1.0, t / makespan) for r, t in sorted(busy.items())}


def busy_time_by_kind(trace: list[TraceRecord]) -> dict[str, float]:
    """Total task-seconds per task kind (compute vs transfer vs sync)."""
    out: dict[str, float] = defaultdict(float)
    for rec in trace:
        out[rec.kind] += rec.duration
    return dict(sorted(out.items()))


_KIND_GLYPH = {"fwd": "F", "bwd": "B", "xfer": "x", "reduce": "r",
               "gradsync": "g", "update": "u", "halo": "h"}


def render_gantt(trace: list[TraceRecord], makespan: float, *,
                 width: int = 80, resources: list[tuple[str, int]] | None = None
                 ) -> str:
    """An ASCII Gantt chart of a simulated step, one row per resource.

    Each column is ``makespan / width`` seconds; the glyph is the task
    kind occupying most of that column's span (``F`` fwd, ``B`` bwd,
    ``x`` transfer, ``r`` partial-sum reduce, ``g`` gradient sync,
    ``u`` update, ``h`` halo; ``.`` idle).
    """
    if makespan <= 0 or width < 1:
        return ""
    if resources is None:
        seen: dict[tuple[str, int], None] = {}
        for rec in trace:
            for r in rec.resources:
                seen.setdefault(r)
        resources = sorted(seen)
    rows: dict[tuple[str, int], list[dict[str, float]]] = {
        r: [dict() for _ in range(width)] for r in resources
    }
    scale = width / makespan
    for rec in trace:
        lo = int(rec.start * scale)
        hi = max(lo + 1, int(rec.end * scale) if rec.end < makespan else width)
        for r in rec.resources:
            if r not in rows:
                continue
            for col in range(lo, min(hi, width)):
                cell = rows[r][col]
                cell[rec.kind] = cell.get(rec.kind, 0.0) + rec.duration
    lines = []
    label_w = max(len(f"{k}{i}") for k, i in resources)
    for r in resources:
        chars = []
        for cell in rows[r]:
            if not cell:
                chars.append(".")
            else:
                kind = max(cell.items(), key=lambda kv: kv[1])[0]
                chars.append(_KIND_GLYPH.get(kind, "?"))
        lines.append(f"{r[0]}{r[1]}".ljust(label_w) + " |" + "".join(chars) + "|")
    return "\n".join(lines)


def critical_path(trace: list[TraceRecord]) -> list[TraceRecord]:
    """The chain of tasks that determines the makespan.

    Walks backwards from the last-finishing task, at each step following
    the predecessor (dependency or same-resource occupant) whose finish
    time equals the current task's start — the task it actually waited
    for.  The returned chain is ordered by start time; summing durations
    by kind shows *why* a step is as long as it is (compute-bound vs
    transfer-bound vs sync-bound).  A record already on the chain is
    never taken again, so zero-duration records that end where the walk
    stands cannot send it round in a loop.
    """
    if not trace:
        return []
    by_end: dict[float, list[TraceRecord]] = {}
    for rec in trace:
        by_end.setdefault(round(rec.end, 15), []).append(rec)
    cur = max(trace, key=lambda r: (r.end, r.duration))
    chain = [cur]
    on_chain = {id(cur)}
    eps = 1e-12
    while cur.start > eps:
        key = round(cur.start, 15)
        preds = by_end.get(key, [])
        preds = [p for p in preds
                 if id(p) not in on_chain and p.end <= cur.start + eps]
        if not preds:
            # No exact-fit predecessor: the task was ready early and its
            # start was resource-delayed by something that finished just
            # before — fall back to the latest finisher before our start.
            preds = [p for p in trace
                     if p.end <= cur.start + eps and id(p) not in on_chain]
            if not preds:
                break
            cur = max(preds, key=lambda r: r.end)
        else:
            # Prefer a predecessor sharing a resource or plausibly a dep.
            shared = [p for p in preds
                      if set(p.resources) & set(cur.resources)]
            cur = (shared or preds)[0]
        chain.append(cur)
        on_chain.add(id(cur))
    chain.reverse()
    return chain


def critical_path_by_kind(trace: list[TraceRecord]) -> dict[str, float]:
    """Seconds on the critical path per task kind."""
    out: dict[str, float] = defaultdict(float)
    for rec in critical_path(trace):
        out[rec.kind] += rec.duration
    return dict(sorted(out.items()))
