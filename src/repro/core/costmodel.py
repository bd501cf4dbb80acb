"""The analytic cost model of Equation (1).

``F(G, φ) = Σ_v t_l(v, φ, r)  +  Σ_(u,v)∈E  r · t_x(u, v, φ)``

*Layer cost* ``t_l`` (FLOP units, per worst device):

* compute: total training FLOPs of the layer divided by the number of
  devices the configuration uses;
* partial-sum reduction: splitting contracted dims ``m``-ways leaves each
  device with a partial output that is combined by an all-reduce over the
  ``m``-group (and the matching gradient broadcast on the backward pass);
* parameter-gradient all-reduce: dims *not* appearing in a parameter
  tensor's axes replicate that parameter; its gradients are all-reduced
  across the replication group every step (the classic data-parallelism
  synchronization cost);
* operator-specific extra communication (e.g. convolution halo exchange).

*Transfer cost* ``t_x`` (bytes, per worst device pair): the volume the
consumer needs minus the best-case aligned overlap with what the producer
holds, in both directions (activations forward, gradients backward), which
makes it edge-direction symmetric as required by the paper (footnote 2).

All per-node and per-edge costs are precomputed **vectorized over entire
configuration tables** into `CostTables`; the dynamic program, brute force,
MCMC comparator, and reports all rank strategies with these shared arrays.
"""

from __future__ import annotations

import logging
import os
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..obs.profile import metrics_of, tracer_of
from ..ops.base import OpSpec
from .configs import ConfigSpace
from .dims import shard_extent
from .exceptions import StrategyError
from .graph import CompGraph, Edge
from .machine import MachineSpec
from .tensors import DTYPE_BYTES, TensorSpec

__all__ = ["CostModel", "CostTables", "allreduce_bytes",
           "PARALLEL_THRESHOLD_CELLS", "BACKEND_CODES"]

#: Minimum total table cells (Σ_v K_v + Σ_e K_u·K_v) before ``jobs=``
#: auto-selection fans out to threads; below it task-dispatch overhead
#: dominates and construction stays serial.  Measured with two threads
#: on a 2-vCPU host: threads lose 7-20% up to inception_v3 p=8 (356k
#: cells) and win from transformer p=32 (1.01M cells, 11%) upwards.
PARALLEL_THRESHOLD_CELLS = 1_000_000

#: Backend names -> the numeric code recorded in ``build_stats``
#: (every stats value must be a float; the string name lives on
#: ``CostTables.backend``).
BACKEND_CODES = {"serial": 0.0, "threads": 1.0}

#: Extra parallel attempts after a thread-pool failure before the serial
#: fallback, and the backoff slept before each retry.
PARALLEL_BUILD_RETRIES = 1
PARALLEL_RETRY_BACKOFF_SECONDS = 0.25

#: Longest uninterrupted slice of a retry-backoff sleep; the run's
#: checkpoint (deadline / cancellation) is polled between slices.
BACKOFF_POLL_SECONDS = 0.05

_log = logging.getLogger(__name__)


def _interruptible_sleep(seconds: float,
                         checkpoint: Callable[..., None] | None) -> None:
    """Sleep in short slices, polling the run checkpoint between them.

    A retry backoff must not outlive the run: a SIGINT or a blown
    deadline during the sleep surfaces at the next poll (within
    `BACKOFF_POLL_SECONDS`) instead of after the full backoff.
    """
    if checkpoint is None:
        time.sleep(seconds)
        return
    deadline = time.perf_counter() + seconds
    while True:
        checkpoint(phase="tables")
        remaining = deadline - time.perf_counter()
        if remaining <= 0:
            return
        time.sleep(min(BACKOFF_POLL_SECONDS, remaining))

def _node_memory_table(op, configs: np.ndarray) -> np.ndarray:
    """One node's per-config worst-device memory bytes ``[K]``.

    The frontier DP's second objective axis (`repro.analysis.memory`),
    built through the same jobs/cache data plane as the cost tables.
    """
    from ..analysis.memory import MemoryModel

    return np.ascontiguousarray(
        MemoryModel().node_bytes(op, configs), dtype=np.float64)


def _parse_jobs(jobs: int | str | None) -> tuple[str, int]:
    """Normalize every ``jobs=`` spelling to ``(mode, requested_workers)``.

    Accepted spellings:

    * ``None`` — serial (the default);
    * ``int n`` — auto-select a backend with at most ``n`` workers
      (``0`` = all cores; negative is an error);
    * ``"serial"`` — force the single-thread reference path;
    * ``"auto"`` / ``"auto:N"`` — explicit auto-selection;
    * ``"threads"`` / ``"threads:N"`` — force the thread backend (used
      by tests/benchmarks to exercise the pool even where
      auto-selection would stay serial).

    An omitted or zero count means "all cores".
    """
    if jobs is None:
        return "serial", 1
    if isinstance(jobs, int) and not isinstance(jobs, bool):
        if jobs < 0:
            raise ValueError(f"jobs={jobs} must be >= 0 (0 = all cores)")
        return "auto", (jobs or (os.cpu_count() or 1))
    if isinstance(jobs, str):
        spec = jobs.strip().lower()
        mode, _, count = spec.partition(":")
        if mode not in ("serial", "auto", "threads"):
            raise ValueError(
                f"jobs={jobs!r}: expected an int, 'serial', or "
                "'auto'/'threads' with an optional ':N' count")
        if mode == "serial":
            if count:
                raise ValueError(f"jobs={jobs!r}: 'serial' takes no count")
            return "serial", 1
        if count:
            try:
                n = int(count)
            except ValueError:
                raise ValueError(
                    f"jobs={jobs!r}: worker count must be an integer") \
                    from None
            if n < 0:
                raise ValueError(f"jobs={jobs!r}: worker count must be >= 0")
        else:
            n = 0
        return mode, (n or (os.cpu_count() or 1))
    raise ValueError(f"jobs={jobs!r}: expected None, an int, or a "
                     "'serial'/'auto[:N]'/'threads[:N]' string")


def allreduce_bytes(volume_bytes, group_size):
    """Per-device bytes moved by a ring all-reduce of ``volume_bytes``.

    ``2 · v · (m - 1) / m`` (reduce-scatter + all-gather).  Vectorized;
    returns zeros where the group size is 1.
    """
    v = np.asarray(volume_bytes, dtype=np.float64)
    m = np.asarray(group_size, dtype=np.float64)
    return np.where(m > 1, 2.0 * v * (m - 1.0) / np.maximum(m, 1.0), 0.0)


class CostModel:
    """Evaluates ``t_l`` and ``t_x`` for a given machine.

    Parameters
    ----------
    machine:
        Supplies the FLOP-to-byte ratio ``r``.
    include_grad_sync / include_reduction / include_extra:
        Ablation switches disabling individual internal-communication
        terms of ``t_l`` (used by the ablation benchmarks to show which
        term drives each strategy decision).
    """

    #: FLOPs charged per parameter in the update phase (momentum SGD:
    #: read gradient + momentum, two multiply-adds, write back).
    UPDATE_FLOPS_PER_PARAM = 4.0

    def __init__(self, machine: MachineSpec, *, include_grad_sync: bool = True,
                 include_reduction: bool = True, include_extra: bool = True) -> None:
        self.machine = machine
        self.r = machine.flop_byte_ratio
        self.include_grad_sync = include_grad_sync
        self.include_reduction = include_reduction
        self.include_extra = include_extra

    # -- layer cost t_l ------------------------------------------------------

    def layer_comm_bytes(self, op: OpSpec, configs: np.ndarray) -> np.ndarray:
        """Internal communication bytes per device, vectorized over [K, d]."""
        configs = np.asarray(configs, dtype=np.int64)
        total = np.zeros(configs.shape[:-1], dtype=np.float64)

        # Partial-sum reduction over contracted dims (forward), plus the
        # matching gradient broadcast on the backward pass -> 2x.
        if self.include_reduction and op.reduction_dims and op.outputs:
            red_idx = [op.dim_index(d) for d in op.reduction_dims]
            m = np.prod(configs[..., red_idx], axis=-1, dtype=np.int64)
            out_shard = op.primary_output.shard_volume(op, configs) * DTYPE_BYTES
            total += 2.0 * allreduce_bytes(out_shard, m)

        # Gradient all-reduce across parameter replication groups.
        if self.include_grad_sync:
            for spec in op.inputs.values():
                if not spec.is_param:
                    continue
                rho = spec.replication(op, configs)
                g_shard = spec.grad_sync_volume(op, configs) * DTYPE_BYTES
                total += allreduce_bytes(g_shard, rho)

        if self.include_extra:
            total += op.extra_comm_bytes(configs)
        return total

    def update_flops(self, op: OpSpec, configs: np.ndarray) -> np.ndarray:
        """Per-device update-phase FLOPs (the paper's third training phase).

        Proportional to the largest parameter shard a device holds —
        unsplit giant tables (embeddings) pay for their full size every
        step, which is part of why PaSE shards them (Table II).
        """
        configs = np.asarray(configs, dtype=np.int64)
        total = np.zeros(configs.shape[:-1], dtype=np.float64)
        for spec in op.inputs.values():
            if spec.is_param:
                total += spec.shard_volume(op, configs)
        return total * self.UPDATE_FLOPS_PER_PARAM

    def layer_cost(self, op: OpSpec, configs: np.ndarray) -> np.ndarray:
        """t_l in FLOP units, vectorized over configurations [K, d] -> [K]."""
        configs = np.asarray(configs, dtype=np.int64)
        parts = np.prod(configs, axis=-1, dtype=np.int64)
        compute = op.flops / parts + self.update_flops(op, configs)
        return compute + self.r * self.layer_comm_bytes(op, configs)

    # -- transfer cost t_x ----------------------------------------------------

    @staticmethod
    def _overlap_volume(shape: np.ndarray, splits_u: np.ndarray,
                        splits_v: np.ndarray) -> np.ndarray:
        """Best-case aligned overlap of producer/consumer block shards.

        Along each tensor axis the overlap of a 1/a block with a 1/b block
        is at most ``ceil(extent / max(a, b))`` elements; a greedy
        locality-maximizing device assignment (Section II) achieves the
        product bound for the best-aligned device.
        """
        su = splits_u[:, None, :]
        sv = splits_v[None, :, :]
        joint = np.maximum(su, sv)
        return np.prod(shard_extent(shape, joint), axis=-1, dtype=np.int64)

    def transfer_bytes_matrix(self, src: OpSpec, out_spec: TensorSpec,
                              dst: OpSpec, in_spec: TensorSpec,
                              configs_u: np.ndarray,
                              configs_v: np.ndarray) -> np.ndarray:
        """t_x in bytes over the full configuration cross-product.

        Returns ``[K_u, K_v]``: forward deficit (consumer need minus
        overlap) plus backward deficit (producer grad need minus overlap),
        each taken at the *worst* device (the paper's ``max_d``).

        Replication matters for the worst device: when the consumer
        replicates the tensor across more devices than the producer keeps
        copies (``ρ_v > ρ_u``), some consumer replica cannot be co-located
        with any holder of its block and must receive its full need — the
        aligned overlap only helps when every replica finds a resident
        copy (and symmetrically for gradients flowing back).
        """
        cu = np.asarray(configs_u, dtype=np.int64)
        cv = np.asarray(configs_v, dtype=np.int64)
        shape = np.asarray(out_spec.shape(src), dtype=np.int64)
        if shape.size == 0:
            return np.zeros((cu.shape[0], cv.shape[0]), dtype=np.float64)
        splits_u = out_spec.splits(src, cu)
        splits_v = in_spec.splits(dst, cv)
        held = np.prod(shard_extent(shape, splits_u), axis=-1, dtype=np.int64)
        need = np.prod(shard_extent(shape, splits_v), axis=-1, dtype=np.int64)
        ov = self._overlap_volume(shape, splits_u, splits_v)
        # Replication factors: devices per distinct block of the tensor.
        rep_u = np.prod(cu, axis=-1) // np.maximum(np.prod(splits_u, axis=-1), 1)
        rep_v = np.prod(cv, axis=-1) // np.maximum(np.prod(splits_v, axis=-1), 1)
        starved_fwd = rep_v[None, :] > rep_u[:, None]
        starved_bwd = rep_u[:, None] > rep_v[None, :]
        fwd = np.where(starved_fwd, need[None, :],
                       np.maximum(need[None, :] - ov, 0))
        bwd = np.where(starved_bwd, held[:, None],
                       np.maximum(held[:, None] - ov, 0))
        # Every transferred byte occupies both endpoints' links (the
        # sender streams what the receiver ingests), so each direction's
        # worst-device deficit is charged twice.
        return 2.0 * (fwd + bwd).astype(np.float64) * DTYPE_BYTES

    def edge_bytes_matrix(self, graph: CompGraph, edge: Edge,
                          configs_u: np.ndarray, configs_v: np.ndarray) -> np.ndarray:
        src, dst = graph.node(edge.src), graph.node(edge.dst)
        return self.transfer_bytes_matrix(
            src, src.outputs[edge.src_port], dst, dst.inputs[edge.dst_port],
            configs_u, configs_v)

    # -- table construction --------------------------------------------------

    @staticmethod
    def table_work_cells(graph: CompGraph, space: ConfigSpace) -> int:
        """Total cells the tables will hold: ``Σ_v K_v + Σ_e K_u · K_v``.

        Used both as the parallelization threshold and as a size proxy in
        build statistics.
        """
        cells = sum(space.size(op.name) for op in graph)
        cells += sum(space.size(e.src) * space.size(e.dst) for e in graph.edges)
        return int(cells)

    def _resolve_backend(self, jobs: int | str | None, work_cells: int,
                         n_tasks: int) -> tuple[str, int]:
        """Pick ``(backend, workers)`` for one build.

        The forced ``"threads[:N]"`` spelling is honored as long as there
        is more than one task to fan out — regardless of core count, so
        tests can exercise the pool path on single-core machines.
        ``"auto"`` (and plain integers) stay serial when there are fewer
        than `PARALLEL_THRESHOLD_CELLS` table cells or fewer than two
        usable workers (``min(requested, cores, tasks)``) — dispatch
        overhead dominates — and use threads otherwise: the vectorized
        kernels release the GIL, and threads pay neither fork nor any
        result copy.
        """
        mode, requested = _parse_jobs(jobs)
        cap = max(n_tasks, 1)
        if mode == "serial":
            return "serial", 1
        if mode == "threads":
            workers = min(requested, cap)
        else:
            workers = min(requested, os.cpu_count() or 1, cap)
            if work_cells < PARALLEL_THRESHOLD_CELLS:
                return "serial", 1
        return ("threads", workers) if workers > 1 else ("serial", 1)

    def build_tables(self, graph: CompGraph, space: ConfigSpace, *,
                     ctx: "object | None" = None,
                     memory: bool = False,
                     ) -> "CostTables":
        """Precompute `CostTables` for one (graph, machine, p) instance.

        Parameters
        ----------
        ctx:
            A `repro.runtime.RunContext` supplying the build knobs below
            and the observability pair; ``None`` builds serially,
            uncached and unpolled.

            ``ctx.jobs`` — parallelism for the per-node / per-edge matrix
            construction.  ``None`` (default) stays serial; an int ``n``
            auto-selects a backend with at most ``n`` workers (``0`` =
            all cores); the string spellings ``"serial"``,
            ``"auto[:N]"`` and ``"threads[:N]"`` force a backend (see
            `_resolve_backend` for the auto rule).  The thread backend
            is bit-identical to the serial path: workers compute exactly
            the arrays the serial loop would, and the parent accumulates
            them in the serial iteration order.  A pool that fails to
            start threads is retried `PARALLEL_BUILD_RETRIES` times with
            backoff and then *degrades* to the serial path — still
            bit-identical, recorded in ``build_stats["degraded"]`` —
            instead of crashing the run.

            ``ctx.cache`` — optional `repro.core.tablecache.TableCache`.
            On a digest hit the stored arrays are loaded and no matrix is
            constructed; on a miss the freshly built tables are stored —
            unless the build degraded, in which case the store is
            skipped (and logged): a build that needed a fallback should
            never be the one that populates a long-lived cache.

            ``ctx.make_checkpoint()`` — optional cooperative cancellation
            hook, polled between per-node / per-edge tasks and around
            pool attempts; it aborts the build by raising.  An aborted
            build never reaches the cache store.
        memory:
            Also build per-node per-config memory tables
            (``CostTables.mem``, worst-device peak bytes from
            `repro.analysis.memory.MemoryModel.node_bytes`) on the same
            jobs / cache data plane as the LC/TX tables.  The frontier
            search requires them; scalar searches never pay for them.
            Flipping this changes the cache digest, so scalar and
            memory-carrying table sets never alias in a `TableCache`.

        The returned tables carry ``build_stats`` (seconds, cache hit,
        worker count, table cells, degradation flags) which the searchers
        surface in ``SearchResult.stats``.
        """
        jobs = cache = checkpoint = None
        if ctx is not None:
            jobs = ctx.jobs
            cache = ctx.cache
            checkpoint = ctx.make_checkpoint()
        tracer = tracer_of(ctx)
        metrics = metrics_of(ctx)

        t0 = time.perf_counter()
        work_cells = self.table_work_cells(graph, space)
        with tracer.span("tables.build", cells=work_cells) as span:
            tables = self._build_tables_inner(
                graph, space, jobs, cache, checkpoint, work_cells, t0,
                memory)
            stats = tables.build_stats
            span.set(cache_hit=bool(stats["cache_hit"]),
                     jobs=int(stats["jobs"]),
                     backend=tables.backend,
                     degraded=bool(stats["degraded"]),
                     seconds_build=stats["build_seconds"])
        if stats["cache_hit"]:
            metrics.counter("table_cache_hits_total",
                            "table-cache digest hits").inc()
        else:
            if cache is not None:
                metrics.counter("table_cache_misses_total",
                                "table-cache digest misses").inc()
            metrics.counter("table_build_cells_total",
                            "cost-table cells constructed").inc(work_cells)
            if stats["build_seconds"] > 0:
                metrics.gauge(
                    "table_build_cells_per_second",
                    "cost-table construction throughput").set(
                        work_cells / stats["build_seconds"])
            metrics.counter("table_pool_retries_total",
                            "parallel table-build pool retries").inc(
                                stats["parallel_retries"])
        return tables

    def _build_tables_inner(self, graph: CompGraph, space: ConfigSpace,
                            jobs: int | str | None, cache: "object | None",
                            checkpoint: Callable[..., None] | None,
                            work_cells: int, t0: float,
                            memory: bool = False) -> "CostTables":
        digest = None
        if cache is not None:
            from .tablecache import table_digest

            digest = table_digest(graph, space, self, memory=memory)
            hit = cache.load(digest, graph, space, self.machine)
            if hit is not None:
                hit.build_stats = {
                    "build_seconds": time.perf_counter() - t0,
                    "cache_hit": 1.0,
                    "jobs": 1.0,
                    "cells": float(work_cells),
                    "result_bytes": float(work_cells * 8),
                    "backend": BACKEND_CODES["serial"],
                    "degraded": 0.0,
                    "parallel_retries": 0.0,
                }
                return hit
        n_tasks = len(graph) + len(graph.edges)
        backend, workers = self._resolve_backend(jobs, work_cells, n_tasks)
        retries = 0
        degraded_reason = None
        if backend != "serial":
            lc, edge_mats, mem, retries, degraded_reason = \
                self._build_arrays_hardened(graph, space, workers,
                                            checkpoint, memory)
        else:
            lc, edge_mats, mem = self._build_arrays_serial(
                graph, space, checkpoint, memory)
        pair_tx: dict[tuple[str, str], np.ndarray] = {}
        for e, raw in zip(graph.edges, edge_mats):
            mat = raw * self.r
            key, flip = _canonical(e.src, e.dst)
            if flip:
                mat = mat.T
            if key in pair_tx:
                pair_tx[key] = pair_tx[key] + mat
            else:
                pair_tx[key] = mat
        tables = CostTables(graph=graph, space=space, machine=self.machine,
                            lc=lc, pair_tx=pair_tx, mem=mem)
        if degraded_reason is not None:
            backend, workers = "serial", 1
        tables.backend = backend
        tables.build_stats = {
            "build_seconds": time.perf_counter() - t0,
            "cache_hit": 0.0,
            "jobs": float(workers),
            "cells": float(work_cells),
            "result_bytes": float(work_cells * 8),
            "backend": BACKEND_CODES[backend],
            "degraded": 0.0 if degraded_reason is None else 1.0,
            "parallel_retries": float(retries),
        }
        if degraded_reason is not None:
            tables.degraded_reason = degraded_reason
        if cache is not None and digest is not None:
            if degraded_reason is not None:
                _log.warning(
                    "not caching tables %s: build degraded to serial after "
                    "pool failure (%s)", digest[:12], degraded_reason)
            else:
                cache.store(digest, tables)
        return tables

    def _build_arrays_serial(
            self, graph: CompGraph, space: ConfigSpace,
            checkpoint: Callable[..., None] | None = None,
            memory: bool = False,
    ) -> tuple[dict[str, np.ndarray], list[np.ndarray],
               dict[str, np.ndarray] | None]:
        """The reference single-thread build (also the degraded path)."""
        n_tasks = len(graph) + len(graph.edges)
        lc: dict[str, np.ndarray] = {}
        for k, op in enumerate(graph):
            if checkpoint is not None:
                checkpoint(phase="tables", step=k, total=n_tasks)
            lc[op.name] = self.layer_cost(op, space.configs(op.name))
        edge_mats = []
        for k, e in enumerate(graph.edges):
            if checkpoint is not None:
                checkpoint(phase="tables", step=len(graph) + k, total=n_tasks)
            edge_mats.append(self.edge_bytes_matrix(
                graph, e, space.configs(e.src), space.configs(e.dst)))
        mem = None
        if memory:
            mem = {op.name: _node_memory_table(op, space.configs(op.name))
                   for op in graph}
        return lc, edge_mats, mem

    def _build_arrays_hardened(
            self, graph: CompGraph, space: ConfigSpace, workers: int,
            checkpoint: Callable[..., None] | None = None,
            memory: bool = False,
    ) -> tuple[dict[str, np.ndarray], list[np.ndarray],
               dict[str, np.ndarray] | None, int, str | None]:
        """Thread-pool build with retry-then-serial degradation.

        Starting pool threads can fail when the process or the host is
        out of threads or memory: ``RuntimeError("can't start new
        thread")`` or `OSError`.  Both are retried with backoff, then the
        bit-identical serial path takes over.  Returns ``(lc, edge_mats,
        mem, retries_used, degraded_reason)``.
        """
        last_error: BaseException | None = None
        for attempt in range(1 + PARALLEL_BUILD_RETRIES):
            if checkpoint is not None:
                checkpoint(phase="tables")
            if attempt:
                _interruptible_sleep(
                    PARALLEL_RETRY_BACKOFF_SECONDS * attempt, checkpoint)
            try:
                lc, edge_mats, mem = self._build_arrays_threads(
                    graph, space, workers, memory)
                return lc, edge_mats, mem, attempt, None
            except (RuntimeError, OSError) as err:
                last_error = err
                _log.warning(
                    "parallel table build attempt %d/%d failed (%s: %s)",
                    attempt + 1, 1 + PARALLEL_BUILD_RETRIES,
                    type(err).__name__, err)
        reason = f"{type(last_error).__name__}: {last_error}"
        _log.warning("parallel table build degraded to serial after "
                     "%d attempts (%s)", 1 + PARALLEL_BUILD_RETRIES, reason)
        lc, edge_mats, mem = self._build_arrays_serial(
            graph, space, checkpoint, memory)
        return lc, edge_mats, mem, PARALLEL_BUILD_RETRIES, reason

    def _build_arrays_threads(
            self, graph: CompGraph, space: ConfigSpace, workers: int,
            memory: bool = False,
    ) -> tuple[dict[str, np.ndarray], list[np.ndarray],
               dict[str, np.ndarray] | None]:
        """Fan the matrix builds over a thread pool (zero-copy, no fork).

        The heavy lifting is vectorized numpy, which releases the GIL
        inside its kernels; results are ordinary in-process arrays, so
        nothing is shipped at all.  ``Executor.map`` preserves input
        order, keeping the caller's accumulation identical to serial.
        """
        from concurrent.futures import ThreadPoolExecutor

        ops = list(graph)
        mem = None
        with ThreadPoolExecutor(max_workers=workers) as pool:
            lc_arrays = list(pool.map(
                lambda op: self.layer_cost(op, space.configs(op.name)), ops))
            edge_mats = list(pool.map(
                lambda e: self.edge_bytes_matrix(
                    graph, e, space.configs(e.src), space.configs(e.dst)),
                graph.edges))
            if memory:
                mem_arrays = list(pool.map(
                    lambda op: _node_memory_table(
                        op, space.configs(op.name)), ops))
                mem = {op.name: arr for op, arr in zip(ops, mem_arrays)}
        return ({op.name: arr for op, arr in zip(ops, lc_arrays)},
                edge_mats, mem)


def _canonical(u: str, v: str) -> tuple[tuple[str, str], bool]:
    """Canonical unordered pair key; ``flip`` True if (v, u) is canonical."""
    return ((u, v), False) if u <= v else ((v, u), True)


@dataclass
class CostTables:
    """Shared ranking oracle: precomputed per-node and per-pair costs.

    Attributes
    ----------
    lc:
        Node name -> ``[K_v]`` layer costs (FLOP units).
    pair_tx:
        Canonical node pair -> ``[K_u, K_v]`` transfer costs already scaled
        by ``r`` (FLOP units); multiple edges between a pair are summed.
    derived:
        True for tables sliced or transformed from another instance
        (e.g. resilience coarsening) rather than built from the model.
        Derived tables are never stored in the on-disk cache — their
        digest would describe the *original* space, poisoning later hits.
    build_stats:
        Construction telemetry from :meth:`CostModel.build_tables`
        (``build_seconds``, ``cache_hit``, ``jobs``, ``cells``,
        ``result_bytes``, ``backend`` code, ``degraded``,
        ``parallel_retries``); empty for tables assembled by hand.
    backend:
        Name of the build backend that produced the arrays
        (``"serial"``/``"threads"``; degraded builds
        report ``"serial"`` — the path that actually ran).  The numeric
        twin lives in ``build_stats["backend"]`` (`BACKEND_CODES`).
    """

    graph: CompGraph
    space: ConfigSpace
    machine: MachineSpec
    lc: dict[str, np.ndarray]
    pair_tx: dict[tuple[str, str], np.ndarray]
    #: Optional per-node per-config worst-device memory bytes ``[K_v]``
    #: (same layout as ``lc``), present only when the tables were built
    #: with ``memory=True`` — the frontier search's second objective.
    mem: dict[str, np.ndarray] | None = None
    derived: bool = False
    backend: str = field(default="serial", repr=False)
    build_stats: dict[str, float] = field(default_factory=dict, repr=False)
    #: Human-readable reason when the parallel build fell back to serial
    #: (None for clean builds); surfaced in the hardened runtime's report.
    degraded_reason: str | None = field(default=None, repr=False)
    _nbr_cache: dict[str, tuple[str, ...]] = field(default_factory=dict, repr=False)

    def tx(self, u: str, v: str) -> np.ndarray:
        """Transfer-cost matrix oriented as ``[K_u, K_v]``."""
        key, flip = _canonical(u, v)
        mat = self.pair_tx[key]
        return mat.T if flip else mat

    def has_pair(self, u: str, v: str) -> bool:
        return _canonical(u, v)[0] in self.pair_tx

    def pairs(self) -> tuple[tuple[str, str], ...]:
        return tuple(self.pair_tx)

    def strategy_cost(self, indices: dict[str, int]) -> float:
        """F(G, φ) for a strategy given as node -> configuration index."""
        missing = set(self.lc) - set(indices)
        if missing:
            raise StrategyError(f"strategy missing nodes: {sorted(missing)[:5]}")
        extra = set(indices) - set(self.lc)
        if extra:
            raise StrategyError(f"strategy names unknown nodes: {sorted(extra)[:5]}")
        # Accumulate in table order, not ``indices`` insertion order, so
        # equal strategies cost bit-identically however they were built.
        total = 0.0
        for name, arr in self.lc.items():
            total += float(arr[indices[name]])
        for (u, v), mat in self.pair_tx.items():
            total += float(mat[indices[u], indices[v]])
        return total

    def node_cost(self, name: str, k: int) -> float:
        return float(self.lc[name][k])

    def pair_cost(self, u: str, v: str, ku: int, kv: int) -> float:
        return float(self.tx(u, v)[ku, kv])

    def neighbors(self, name: str) -> tuple[str, ...]:
        if name not in self._nbr_cache:
            self._nbr_cache[name] = self.graph.neighbors(name)
        return self._nbr_cache[name]

    def nbytes(self) -> int:
        """Memory footprint of the precomputed tables."""
        total = sum(a.nbytes for a in self.lc.values())
        total += sum(a.nbytes for a in self.pair_tx.values())
        if self.mem is not None:
            total += sum(a.nbytes for a in self.mem.values())
        return total

    def work_cells(self) -> int:
        """Cells actually held: ``Σ_v K_v + Σ_pair K_u · K_v``.

        Unlike :meth:`CostModel.table_work_cells` this counts the stored
        arrays, so it reflects dominance pruning and chain contraction on
        derived tables.
        """
        return int(sum(a.shape[0] for a in self.lc.values())
                   + sum(m.size for m in self.pair_tx.values()))
