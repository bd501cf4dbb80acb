"""search-p16, search-reduce and frontier: timed strategy searches.

Untimed runs go through ``repro.api`` exactly as a user would call it.
The traced run times the same pipeline as separate calls into each
layer's public functions, with spans recorded by the benchmark's own
in-memory `Tracer`; nothing inside ``src/`` is traced.
"""

from __future__ import annotations

import random
import shutil
import tempfile
import time
from pathlib import Path
from statistics import median

from repro import api
from repro.baselines.data_parallel import data_parallel_strategy
from repro.cluster import simulate_step
from repro.core.configs import ConfigSpace
from repro.core.costmodel import CostModel
from repro.core.dp import DEFAULT_MEMORY_BUDGET, find_best_strategy
from repro.core.frontier import strategy_peak_bytes
from repro.core.machine import GTX1080TI
from repro.core.reduction import reduce_problem
from repro.core.sequencer import SequencedGraph, generate_seq
from repro.core.tablecache import TableCache, table_digest
from repro.models import BENCHMARKS
from repro.obs.trace import Tracer, span_tree
from repro.runtime.run import run_fingerprint

from common import Oracle, geomean, layer_self_times, metric
from workloads import frontier_key, scalar_key

#: Span names of the traced pipeline, one per layer, in pipeline order.
LAYERS = ("models.build", "configs.build", "runtime.fingerprint",
          "costmodel.tables", "tablecache.store", "sequencer.seq",
          "reduction.reduce", "dp.search", "dp.expand", "frontier.search",
          "frontier.peak_bytes", "simulator.sim")

#: Traced runs below this share of op wall time in named layers fail:
#: the decomposition is missing a layer.
MIN_COVERAGE = 0.95


class SearchWorkload:
    """One scalar-search or frontier workload over a fixed problem list."""

    def __init__(self, spec: dict, work: Path, oracle: Oracle,
                 smoke: bool = False) -> None:
        self.frontier = spec["kind"] == "frontier"
        self.problems = spec["problems"][:1] if smoke else spec["problems"]
        self.work = work
        self.oracle = oracle

    def setup(self) -> None:
        """One warm-up op on a tiny problem: lazy imports, kernels."""
        tiny = ("alexnet", 4, "frontier") if self.frontier else ("alexnet", 4)
        self._op(tiny)

    def close(self) -> None:
        pass

    # -- the op, untraced ------------------------------------------------------

    def _op(self, prob: tuple) -> tuple[float, tuple]:
        """Problem build, search (and simulate) with a fresh table cache."""
        cache = tempfile.mkdtemp(dir=self.work)
        try:
            t0 = time.perf_counter()
            problem = api.Problem.from_benchmark(prob[0], prob[1])
            ctx = api.RunContext(cache=TableCache(cache))
            if self.frontier:
                result = api.search(problem, objective=prob[2], ctx=ctx).result
                report = None
            else:
                result = api.search(problem, reduce=True, ctx=ctx).result
                report = api.simulate(problem, result)
            seconds = time.perf_counter() - t0
        finally:
            shutil.rmtree(cache)
        return seconds, (problem, result, report)

    def _check(self, prob: tuple, result) -> bool:
        if self.frontier:
            return self.oracle.frontier_points(
                frontier_key(*prob),
                [(pt.cost, pt.peak_bytes) for pt in result.frontier])
        return self.oracle.cost(scalar_key(prob[0], prob[1], True),
                                result.cost)

    # -- the op, traced --------------------------------------------------------

    def _traced_op(self, prob: tuple, tracer: Tracer,
                   bypassed: bool) -> tuple[float, dict, object]:
        """The pipeline of `_op` as one span per layer; returns counts too.

        The reduction runs exactly when the untraced search did not
        bypass it, so both runs take the same path to the same cost.
        """
        model, p = prob[0], prob[1]
        objective = prob[2] if self.frontier else "cost"
        cache = tempfile.mkdtemp(dir=self.work)
        counts: dict[str, float] = {}
        try:
            t0 = time.perf_counter()
            with tracer.span("op", model=model, p=p):
                with tracer.span("models.build"):
                    graph = BENCHMARKS[model]()
                with tracer.span("configs.build"):
                    space = ConfigSpace.build(graph, p)
                cost_model = CostModel(GTX1080TI)
                with tracer.span("runtime.fingerprint"):
                    run_fingerprint(
                        graph, space, cost_model, method="ours", seed=0,
                        reduce=not self.frontier, resilient=False,
                        memory_budget=DEFAULT_MEMORY_BUDGET, order=None,
                        objective=objective)
                with tracer.span("costmodel.tables"):
                    tables = cost_model.build_tables(
                        graph, space, memory=self.frontier)
                with tracer.span("tablecache.store"):
                    path = TableCache(cache).store(
                        table_digest(graph, space, cost_model,
                                     memory=self.frontier), tables)
                with tracer.span("sequencer.seq"):
                    seq = SequencedGraph.build(graph, generate_seq(graph))
                if self.frontier:
                    with tracer.span("frontier.search"):
                        result = find_best_strategy(graph, space, tables,
                                                    objective=objective)
                elif not bypassed:
                    with tracer.span("reduction.reduce"):
                        red = reduce_problem(graph, space, tables)
                    with tracer.span("dp.search"):
                        inner = find_best_strategy(
                            red.reduced_graph, red.reduced_space,
                            red.reduced_tables)
                    with tracer.span("dp.expand"):
                        result = red.expand_result(inner)
                    counts["reduction.cells_before"] = \
                        red.stats["reduction_cells_before"]
                    counts["reduction.cells_after"] = \
                        red.stats["reduction_cells_after"]
                else:
                    with tracer.span("dp.search"):
                        result = find_best_strategy(graph, space, tables)
                if not self.frontier:
                    with tracer.span("frontier.peak_bytes"):
                        strategy_peak_bytes(graph, space, result.strategy)
                    with tracer.span("simulator.sim"):
                        report = simulate_step(graph, result.strategy,
                                               GTX1080TI, p)
                    counts["simulator.tasks"] = report.task_count
                    counts["dp.cells"] = result.stats["cells"]
                    counts["dp.peak_bytes"] = result.stats["peak_bytes"]
                else:
                    counts["frontier.points"] = len(result.frontier)
            seconds = time.perf_counter() - t0
            counts["tablecache.bytes"] = path.stat().st_size
        finally:
            shutil.rmtree(cache)
        counts["configs.cells"] = sum(space.size(n) for n in space.tables)
        counts["costmodel.work_cells"] = tables.work_cells()
        counts["sequencer.max_dependent"] = seq.max_dependent_size
        return seconds, counts, result

    # -- measurement -----------------------------------------------------------

    def _timed(self, rng: random.Random, seconds: float, op) -> tuple:
        """Run seeded sweeps of ``op`` for about ``seconds``.

        The first sweep always completes, so every problem has a sample;
        after it, an op starts only if its problem's last time still fits.
        Returns per-problem op times and each problem's first output.
        """
        times: dict[tuple, list[float]] = {prob: [] for prob in self.problems}
        first: dict[tuple, object] = {}
        start = time.perf_counter()
        while True:
            order = list(self.problems)
            rng.shuffle(order)
            for prob in order:
                if len(first) == len(self.problems) and (
                        time.perf_counter() - start + times[prob][-1]
                        > seconds):
                    return times, first
                try:
                    secs, out = op(prob)
                except Exception as err:  # counted, never fatal
                    self.oracle.fail(f"{prob}: {type(err).__name__}: {err}")
                    return times, first
                times[prob].append(secs)
                first.setdefault(prob, out)

    def measure(self, seed: int, seconds: float, trace: bool) -> dict:
        rng = random.Random(seed)
        phase = seconds / 2 if trace else seconds

        def op(prob):
            secs, out = self._op(prob)
            self._check(prob, out[1])
            return secs, out

        times, first = self._timed(rng, phase, op)
        if self.oracle.failures:
            return {"metrics": {}}
        out = {"metrics": self._e2e(times, first)}
        if trace:
            out.update(self._traced(rng, phase, times, first))
        return out

    def _e2e(self, times: dict, first: dict) -> dict:
        medians = [median(t) for t in times.values()]
        speedups = []
        for prob in self.problems:   # fixed order: peak RSS must not vary
            problem, result, report = first[prob]
            self.oracle.chain(prob[0], prob[1], result.cost)
            found = (report or api.simulate(problem, result)).step_time
            dp = api.simulate(problem, data_parallel_strategy(
                problem.graph, problem.p)).step_time
            speedups.append(dp / found)
        n = sum(len(t) for t in times.values())
        return {
            "latency_ms": metric(1e3 * geomean(medians), "ms", n),
            "throughput": metric(len(medians) / sum(medians), "1/s", n),
            "sim_speedup_vs_dp": metric(geomean(speedups), "x",
                                        len(speedups)),
        }

    def _traced(self, rng: random.Random, seconds: float, base_times: dict,
                base: dict) -> dict:
        """Rerun the workload one span per layer; shares of op wall time."""
        tracer = Tracer(None)
        counts: dict[tuple, dict] = {}

        def op(prob):
            expect = base[prob][1]
            secs, c, result = self._traced_op(
                prob, tracer, bool(expect.stats.get("reduction_bypassed")))
            counts.setdefault(prob, c)
            if self.frontier:
                same = ([(q.cost, q.peak_bytes) for q in result.frontier]
                        == [(q.cost, q.peak_bytes) for q in expect.frontier])
            else:
                same = result.cost == expect.cost
            self.oracle.check(same, f"{prob}: traced answer differs from "
                                    "the untraced one")
            return secs, None

        times, _ = self._timed(rng, seconds, op)
        if self.oracle.failures:
            return {}
        roots = span_tree(tracer.records)
        wall = sum(r["seconds"] for r in roots)
        self_times = layer_self_times(roots)
        layers = {f"{name}_frac": metric(self_times.get(name, 0.0) / wall,
                                         "ratio") for name in LAYERS}
        coverage = sum(self_times.get(name, 0.0) for name in LAYERS) / wall
        self.oracle.check(coverage >= MIN_COVERAGE,
                          f"trace coverage {coverage:.3f} is below "
                          f"{MIN_COVERAGE}: a layer is missing")
        overhead = sum(median(t) for t in times.values() if t) / sum(
            median(base_times[prob]) for prob, t in times.items() if t) - 1
        ran = [c for c in counts.values() if "reduction.cells_before" in c]
        layers.update({
            "trace.coverage_frac": metric(coverage, "ratio", len(roots)),
            "trace.overhead_frac": metric(overhead, "ratio", len(roots)),
            "reduction.ran_frac": metric(len(ran) / len(counts), "ratio"),
            "reduction.cells_removed_frac": metric(
                1 - sum(c["reduction.cells_after"] for c in ran)
                / sum(c["reduction.cells_before"] for c in ran)
                if ran else 0.0, "ratio"),
        })
        for name, unit, agg in SWEEP_COUNTS:
            layers[name] = metric(
                float(agg(c.get(name, 0) for c in counts.values())), unit)
        layers.update({f"{name}_s": metric(self_times.get(name, 0.0)
                                           / len(roots), "s", len(roots))
                       for name in LAYERS})
        return {"layers": layers, "spans": tracer.records}


#: Per-sweep counts: (name, unit, how the problems of a sweep combine).
SWEEP_COUNTS = (
    ("configs.cells", "count", sum),
    ("costmodel.work_cells", "count", sum),
    ("tablecache.bytes", "bytes", sum),
    ("sequencer.max_dependent", "count", max),
    ("dp.cells", "count", sum),
    ("dp.peak_bytes", "bytes", max),
    ("simulator.tasks", "count", sum),
    ("frontier.points", "count", sum),
)
