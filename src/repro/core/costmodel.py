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
The overlap is a product over tensor axes of the smaller of the two ends'
shard extents, computed from each end's per-axis extents.

All per-node and per-edge costs are precomputed **vectorized over entire
configuration tables** into `CostTables`; the dynamic program, brute force,
MCMC comparator, and reports all rank strategies with these shared arrays.
`CostModel.build_tables` fills them in one serial pass, nodes then edges,
pricing each distinct edge (equal extents and replication at both ends)
once, and a content-addressed `repro.core.tablecache.TableCache` makes a
repeated build a load.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..obs.profile import metrics_of, tracer_of
from ..ops.base import OpSpec
from .configs import ConfigSpace
from .dims import shard_extent
from .exceptions import StrategyError
from .graph import CompGraph
from .machine import MachineSpec
from .tensors import DTYPE_BYTES, TensorSpec

__all__ = ["CostModel", "CostTables", "allreduce_bytes"]


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

    def transfer_bytes_matrix(self, src: OpSpec, out_spec: TensorSpec,
                              dst: OpSpec, in_spec: TensorSpec,
                              configs_u: np.ndarray,
                              configs_v: np.ndarray) -> np.ndarray:
        """t_x in bytes over the full configuration cross-product.

        Returns ``[K_u, K_v]``: forward deficit (consumer need minus
        overlap) plus backward deficit (producer grad need minus overlap),
        each taken at the *worst* device (the paper's ``max_d``).  See
        `_transfer_bytes` for the formula.
        """
        return _transfer_bytes(*_transfer_operands(
            src, out_spec, dst, in_spec, configs_u, configs_v))

    # -- table construction --------------------------------------------------

    @staticmethod
    def table_work_cells(graph: CompGraph, space: ConfigSpace) -> int:
        """Total cells the tables will hold: ``Σ_v K_v + Σ_e K_u · K_v``.

        Used as a size proxy in build statistics and metrics.
        """
        cells = sum(space.size(op.name) for op in graph)
        cells += sum(space.size(e.src) * space.size(e.dst) for e in graph.edges)
        return int(cells)

    def build_tables(self, graph: CompGraph, space: ConfigSpace, *,
                     ctx: "object | None" = None,
                     memory: bool = False,
                     ) -> "CostTables":
        """Precompute `CostTables` for one (graph, machine, p) instance.

        Parameters
        ----------
        ctx:
            A `repro.runtime.RunContext` supplying the build knobs below
            and the observability pair; ``None`` builds uncached and
            unpolled.

            ``ctx.cache`` — optional `repro.core.tablecache.TableCache`.
            On a digest hit the stored arrays are loaded and no matrix is
            constructed; on a miss the freshly built tables are stored.

            ``ctx.make_checkpoint()`` — optional cooperative cancellation
            hook, polled between per-node / per-edge tasks; it aborts the
            build by raising.  An aborted build never reaches the cache
            store.
        memory:
            Also build per-node per-config memory tables
            (``CostTables.mem``, worst-device peak bytes from
            `repro.core.frontier.memory_tables`), cached together with
            the LC/TX tables.  The frontier search requires them; scalar
            searches never pay for them.  Flipping this changes the cache
            digest, so scalar and memory-carrying table sets never alias
            in a `TableCache`.

        The returned tables carry ``build_stats`` (``build_seconds``,
        ``cache_hit``, ``cells``), which the searchers surface in
        ``SearchResult.stats``.
        """
        cache = checkpoint = None
        if ctx is not None:
            cache = ctx.cache
            checkpoint = ctx.make_checkpoint()
        tracer = tracer_of(ctx)
        metrics = metrics_of(ctx)

        t0 = time.perf_counter()
        work_cells = self.table_work_cells(graph, space)
        with tracer.span("tables.build", cells=work_cells) as span:
            tables = self._build_tables_inner(
                graph, space, cache, checkpoint, work_cells, t0, memory,
                span)
            stats = tables.build_stats
            span.set(cache_hit=bool(stats["cache_hit"]),
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
        return tables

    def _build_tables_inner(self, graph: CompGraph, space: ConfigSpace,
                            cache: "object | None",
                            checkpoint: Callable[..., None] | None,
                            work_cells: int, t0: float,
                            memory: bool, span) -> "CostTables":
        """Cache lookup, the per-node then per-edge loop, cache store."""
        digest = None
        if cache is not None:
            from .tablecache import table_digest

            digest = table_digest(graph, space, self, memory=memory)
            hit = cache.load(digest, graph, space, self.machine)
            if hit is not None:
                hit.build_stats = {
                    "build_seconds": time.perf_counter() - t0,
                    "cache_hit": 1.0,
                    "cells": float(work_cells),
                }
                return hit
        n_tasks = len(graph) + len(graph.edges)
        lc: dict[str, np.ndarray] = {}
        for k, op in enumerate(graph):
            if checkpoint is not None:
                checkpoint(phase="tables", step=k, total=n_tasks)
            lc[op.name] = self.layer_cost(op, space.configs(op.name))
        # Repeated blocks repeat their edges' arguments exactly, so each
        # distinct argument set is priced once and its matrix shared.
        built: dict[tuple, np.ndarray] = {}
        pair_tx: dict[tuple[str, str], np.ndarray] = {}
        for k, e in enumerate(graph.edges):
            if checkpoint is not None:
                checkpoint(phase="tables", step=len(graph) + k, total=n_tasks)
            src, dst = graph.node(e.src), graph.node(e.dst)
            args = _transfer_operands(
                src, src.outputs[e.src_port], dst, dst.inputs[e.dst_port],
                space.configs(e.src), space.configs(e.dst))
            key = tuple((a.shape, a.tobytes()) for a in args)
            mat = built.get(key)
            if mat is None:
                mat = built[key] = _transfer_bytes(*args) * self.r
            pair, flip = _canonical(e.src, e.dst)
            if flip:
                mat = mat.T
            if pair in pair_tx:
                pair_tx[pair] = pair_tx[pair] + mat
            else:
                pair_tx[pair] = mat
        span.set(edges=len(graph.edges), matrices_built=len(built))
        mem = None
        if memory:
            from .frontier import memory_tables

            mem = memory_tables(graph, space)
        tables = CostTables(graph=graph, space=space, machine=self.machine,
                            lc=lc, pair_tx=pair_tx, mem=mem)
        tables.build_stats = {
            "build_seconds": time.perf_counter() - t0,
            "cache_hit": 0.0,
            "cells": float(work_cells),
        }
        if digest is not None:
            cache.store(digest, tables)
        return tables


def _transfer_operands(src: OpSpec, out_spec: TensorSpec, dst: OpSpec,
                       in_spec: TensorSpec, configs_u: np.ndarray,
                       configs_v: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arguments of `_transfer_bytes` for one edge.

    For each end: the per-axis shard extents ``[K, m]`` of the
    producer's tensor under that end's configurations, and its
    replication ``[K]``, the devices per distinct block.
    """
    shape = np.asarray(out_spec.shape(src), dtype=np.int64)
    args: list[np.ndarray] = []
    for spec, op, configs in ((out_spec, src, configs_u),
                              (in_spec, dst, configs_v)):
        configs = np.asarray(configs, dtype=np.int64)
        splits = spec.splits(op, configs)
        args.append(shard_extent(shape, splits))
        args.append(np.prod(configs, axis=-1)
                    // np.maximum(np.prod(splits, axis=-1), 1))
    return tuple(args)


def _transfer_bytes(ext_u: np.ndarray, rep_u: np.ndarray,
                    ext_v: np.ndarray, rep_v: np.ndarray) -> np.ndarray:
    """t_x in bytes, ``[K_u, K_v]``, from both ends' extents and replication.

    Along each axis of extent ``s`` the overlap of a ``1/a`` block with a
    ``1/b`` block is at most ``ceil(s / max(a, b))`` elements, which is
    ``min(ceil(s / a), ceil(s / b))``.  So the best-case aligned overlap
    is ``Π_axis min(ext_u[i, axis], ext_v[j, axis])``, and a greedy
    locality-maximizing device assignment (Section II) achieves it for
    the best-aligned device.  It never exceeds either end's shard, so
    each deficit is the shard minus the overlap.

    Replication matters for the worst device: when the consumer
    replicates the tensor across more devices than the producer keeps
    copies (``ρ_v > ρ_u``), some consumer replica cannot be co-located
    with any holder of its block and must receive its full need — the
    aligned overlap only helps when every replica finds a resident copy
    (and symmetrically for gradients flowing back).
    """
    k_u, m = ext_u.shape
    if m == 0:
        return np.zeros((k_u, ext_v.shape[0]), dtype=np.float64)
    ov = np.minimum.outer(ext_u[:, 0], ext_v[:, 0])
    for axis in range(1, m):
        ov *= np.minimum.outer(ext_u[:, axis], ext_v[:, axis])
    # Forward deficit: need - ov, or all of need when ρ_v > ρ_u.
    # Backward deficit: held - ov, or all of held when ρ_u > ρ_v.  At
    # most one direction starves, so the sum is held + need - ov, less
    # ov once more when ρ_u == ρ_v.
    np.add(ov, ov, out=ov, where=rep_u[:, None] == rep_v[None, :])
    total = np.prod(ext_u, axis=-1)[:, None] + np.prod(ext_v, axis=-1)
    total -= ov
    # Every transferred byte occupies both endpoints' links (the
    # sender streams what the receiver ingests), so each direction's
    # worst-device deficit is charged twice.
    out = total.astype(np.float64)
    out *= 2.0 * DTYPE_BYTES
    return out


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
        (``build_seconds``, ``cache_hit``, ``cells``); empty for tables
        assembled by hand.
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
    build_stats: dict[str, float] = field(default_factory=dict, repr=False)

    def tx(self, u: str, v: str) -> np.ndarray:
        """Transfer-cost matrix oriented as ``[K_u, K_v]``."""
        key, flip = _canonical(u, v)
        mat = self.pair_tx[key]
        return mat.T if flip else mat

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
