"""Plain-text table formatting for experiment reports."""

from __future__ import annotations

from typing import Mapping, Sequence

__all__ = ["format_time", "format_grid", "format_speedup_table",
           "format_fault_table", "format_resilience_report",
           "format_replan_report", "format_table_build_stats",
           "format_reduction_stats", "format_run_report",
           "format_frontier_table", "format_frontier_plot",
           "format_bytes"]


def format_time(seconds: float | None) -> str:
    """Render seconds in the paper's Table I ``mins:secs.msecs`` format.

    ``None`` renders as ``OOM`` (resource-budget failures).
    """
    if seconds is None:
        return "OOM"
    mins, rem = divmod(max(seconds, 0.0), 60.0)
    return f"{int(mins)}:{rem:06.3f}"


def format_grid(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """A padded, pipe-separated text table."""
    cells = [[str(h) for h in headers]] + [[str(c) for c in row] for row in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    lines = []
    for j, row in enumerate(cells):
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
        if j == 0:
            lines.append("-+-".join("-" * w for w in widths))
    return "\n".join(lines)


def format_bytes(n: float) -> str:
    """Human-readable bytes (``1.50 GiB``), exact below 1 KiB."""
    value = float(n)
    for unit in ("B", "KiB", "MiB", "GiB", "TiB"):
        if abs(value) < 1024.0 or unit == "TiB":
            return f"{value:.0f} {unit}" if unit == "B" \
                else f"{value:.2f} {unit}"
        value /= 1024.0
    raise AssertionError("unreachable")


def format_frontier_table(frontier: Sequence) -> str:
    """The Pareto frontier as a text table, one row per point.

    ``frontier`` is a sequence of `repro.core.strategy.FrontierPoint`
    in the search's native order (ascending cost / descending memory);
    the min-cost row — the scalar DP optimum — is marked.
    """
    if not frontier:
        return "frontier: empty"
    rows = []
    for i, pt in enumerate(frontier):
        rows.append([i, f"{pt.cost:.6e}", format_bytes(pt.peak_bytes),
                     "min-cost" if i == 0 else ""])
    return format_grid(["#", "cost (FLOP-eq)", "peak memory", ""], rows)


def format_frontier_plot(frontier: Sequence, *, width: int = 60,
                         height: int = 16) -> str:
    """ASCII scatter of the (cost, peak-bytes) frontier.

    Cost on the x axis, peak bytes on the y axis; ``*`` marks frontier
    points and ``o`` the min-cost point.  Degenerate (single-point or
    zero-range) frontiers collapse to a one-line summary rather than a
    misleading plot.
    """
    if not frontier:
        return "frontier: empty"
    costs = [pt.cost for pt in frontier]
    mems = [pt.peak_bytes for pt in frontier]
    c_lo, c_hi = min(costs), max(costs)
    m_lo, m_hi = min(mems), max(mems)
    if len(frontier) == 1 or c_hi <= c_lo or m_hi <= m_lo:
        return (f"frontier: {len(frontier)} point(s), cost {c_lo:.6e}, "
                f"peak {format_bytes(m_lo)}")
    grid = [[" "] * width for _ in range(height)]
    for pt in frontier:
        x = round((pt.cost - c_lo) / (c_hi - c_lo) * (width - 1))
        y = round((pt.peak_bytes - m_lo) / (m_hi - m_lo) * (height - 1))
        grid[height - 1 - y][x] = "*"
    x0 = round((frontier[0].cost - c_lo) / (c_hi - c_lo) * (width - 1))
    y0 = round((frontier[0].peak_bytes - m_lo) / (m_hi - m_lo) * (height - 1))
    grid[height - 1 - y0][x0] = "o"
    lines = [f"peak {format_bytes(m_hi)}"]
    lines += ["  |" + "".join(row) for row in grid]
    lines.append("  +" + "-" * width)
    lines.append(f"   cost {c_lo:.3e} .. {c_hi:.3e}, "
                 f"peak down to {format_bytes(m_lo)}   (o = min-cost)")
    return "\n".join(lines)


def format_table_build_stats(stats: Mapping[str, float]) -> str:
    """One-line summary of the cost-table construction phase.

    Accepts ``CostTables.build_stats`` (keys ``build_seconds``,
    ``cache_hit``, ``jobs``, ``cells``) or ``SearchResult.stats`` using
    the same keys under a ``table_`` prefix.
    """
    get = lambda k: stats.get(k, stats.get(f"table_{k}"))  # noqa: E731
    seconds = get("build_seconds")
    if seconds is None:
        return "cost tables: no build statistics"
    cells = get("cells")
    size = f", {cells / 1e6:.2f}M cells" if cells else ""
    if get("cache_hit"):
        return f"cost tables: {seconds:.3f}s (cache hit{size})"
    jobs = int(get("jobs") or 1)
    how = f"threads x{jobs}" if jobs > 1 else "serial"
    note = " [DEGRADED: pool failed, serial fallback]" if get("degraded") \
        else ""
    return f"cost tables: {seconds:.3f}s ({how}{size}){note}"


def format_reduction_stats(stats: Mapping[str, float]) -> str:
    """One-line summary of the search-space reduction phase.

    Reads the ``reduction_*`` keys `repro.core.reduction.reduce_problem`
    reports through ``SearchResult.stats``; returns a disabled marker
    when they are absent (search ran without ``--reduce``) and a bypass
    marker when ``reduce="auto"`` predicted the plain DP to be cheaper
    than the reduction itself and skipped it.
    """
    if stats.get("reduction_bypassed"):
        return ("search-space reduction: bypassed (plain DP predicted "
                "cheaper; force with reduce='always')")
    seconds = stats.get("reduction_seconds")
    if seconds is None:
        return "search-space reduction: off"
    before = stats.get("reduction_cells_before") or 0.0
    removed = stats.get("reduction_cells_removed") or 0.0
    pct = f" ({100.0 * removed / before:.1f}% of table cells)" if before else ""
    return (f"search-space reduction: {seconds:.3f}s, "
            f"{int(stats.get('reduction_vertices_removed', 0))} vertices and "
            f"{int(stats.get('reduction_configs_removed', 0))} configs removed"
            f"{pct} in {int(stats.get('reduction_rounds', 0))} rounds")


def format_run_report(report) -> str:
    """Multi-line summary of a `repro.runtime.RunReport`.

    Shows how each pipeline phase ran (``journal`` = replayed from a
    resumed run's snapshot), every degradation event, and the overall
    verdict with the exit code the CLI maps the outcome to.  A healthy
    run reads ``completed with zero degradations``.
    """
    lines = []
    for ph in report.phases:
        lines.append(f"  {ph.name:10s} {ph.seconds:8.3f}s  {ph.status}")
    if report.degradations:
        lines.append("  degradations:")
        lines.extend(f"    - {d}" for d in report.degradations)
    verdict = {
        "ok": "completed with zero degradations" if not report.degradations
              else f"completed, {len(report.degradations)} degradation(s)",
        "deadline": "DEADLINE EXCEEDED",
        "interrupted": "INTERRUPTED (journal flushed; re-run with --resume)",
        "resource-error": "FAILED: resource budget exceeded",
    }.get(report.outcome, report.outcome)
    head = "run report"
    if report.resumed:
        head += " (resumed from journal)"
    tail = [f"{head}: {verdict} [exit code {report.exit_code}]"]
    if report.detail and report.outcome != "ok":
        tail.append(f"  reason: {report.detail}")
    if report.best_cost is not None and report.outcome != "ok":
        tail.append(f"  best cost so far: {report.best_cost:.6e}")
    if report.journal_path is not None:
        tail.append(f"  journal: {report.journal_path}")
    return "\n".join(lines + tail)


def format_fault_table(rows: Sequence[tuple[str, object]]) -> str:
    """Healthy-vs-faulted comparison, one row per method.

    ``rows`` pairs a method name with a faulted `SimulationReport`
    (``baseline_step_time`` set); faults' added delay is broken down by
    fault kind.
    """
    grid = []
    for method, rep in rows:
        by_fault: dict[str, float] = {}
        for e in rep.fault_events:
            by_fault[e.fault] = by_fault.get(e.fault, 0.0) + e.delay
        detail = ", ".join(f"{k}+{v * 1e3:.2f}ms"
                           for k, v in sorted(by_fault.items())) or "-"
        healthy = rep.baseline_step_time
        grid.append([
            method,
            f"{healthy * 1e3:.2f}" if healthy else "-",
            f"{rep.step_time * 1e3:.2f}",
            f"{rep.fault_slowdown:.2f}x",
            len(rep.fault_events),
            detail,
        ])
    return format_grid(
        ["method", "healthy ms", "faulted ms", "slowdown", "events", "delay by fault"],
        grid)


def format_resilience_report(report) -> str:
    """The retry chain of a resilient search as a text table."""
    rows = []
    for a in report.attempts:
        outcome = "ok" if a.ok else (a.error or "failed")
        rows.append([a.stage, a.detail, f"{a.elapsed:.3f}s", outcome])
    table = format_grid(["stage", "parameters", "elapsed", "outcome"], rows)
    verdict = ("completed after "
               f"{report.retries} degradation retr{'y' if report.retries == 1 else 'ies'}"
               if report.succeeded else "FAILED at every degradation rung")
    return f"{table}\nresilient search: {verdict}"


def format_replan_report(rep) -> str:
    """Degraded-vs-replanned summary for an `ElasticReplanReport`."""
    be = rep.breakeven_steps
    be_text = "never (degraded is no slower)" if be == float("inf") \
        else f"{be:.1f} steps"
    lines = [
        f"fail-stop on devices {list(rep.failed_devices)}: "
        f"p={rep.old_p} -> {rep.new_p} survivors",
        f"  healthy step   : {rep.healthy_step_time * 1e3:9.2f} ms",
        f"  degraded step  : {rep.degraded_step_time * 1e3:9.2f} ms "
        f"({rep.degraded_step_time / rep.healthy_step_time:.2f}x, keep old strategy)",
        f"  replanned step : {rep.replanned_step_time * 1e3:9.2f} ms "
        f"(new strategy on {rep.new_p} devices)",
        f"  recovery cost  : {rep.recovery_cost:9.3f} s "
        f"(restore {rep.restore_time:.3f} + lost work {rep.lost_work:.3f} "
        f"+ re-search {rep.search_elapsed:.3f})",
        f"  break-even     : {be_text}",
    ]
    return "\n".join(lines)


def format_speedup_table(
    data: Mapping[str, Mapping[int, Mapping[str, float]]],
    methods: Sequence[str],
) -> str:
    """Fig. 6-style table: per benchmark and device count, speedup over
    data parallelism per method."""
    rows = []
    for bench, by_p in data.items():
        for p, series in sorted(by_p.items()):
            rows.append([bench, p] + [f"{series.get(m, float('nan')):.2f}x"
                                      for m in methods])
    return format_grid(["benchmark", "p"] + list(methods), rows)
