"""Parallelization-configuration enumeration.

A configuration of a node ``v`` with a ``d``-dimensional iteration space is
a ``d``-tuple of positive split factors with product at most ``p`` (paper,
Section II).  We additionally cap each factor by its dimension size (a
dimension cannot be split into more parts than it has points) and respect
per-dim ``splittable`` flags.

Three enumeration modes control granularity:

* ``"pow2"`` (default): factors are powers of two.  Matches Mesh-TensorFlow
  practice, keeps per-node configuration counts in the ranges the paper
  reports (Section III-C), and device counts are powers of two anyway.
* ``"divisors"``: factors are divisors of ``p``.
* ``"all"``: any positive integers with product <= ``p`` (used only in
  ablations and tiny test spaces — exhaustive but large).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..ops.base import OpSpec
from .exceptions import ConfigError
from .graph import CompGraph

__all__ = ["MODES", "enumerate_configs", "ConfigSpace"]

MODES = ("pow2", "divisors", "all")


@lru_cache(maxsize=None)
def _candidate_factors(limit: int, p: int, mode: str) -> tuple[int, ...]:
    """Allowed split factors for one dim of size ``limit`` on ``p`` devices."""
    cap = min(limit, p)
    if mode == "pow2":
        vals, f = [], 1
        while f <= cap:
            vals.append(f)
            f *= 2
        return tuple(vals)
    if mode == "divisors":
        return tuple(f for f in range(1, cap + 1) if p % f == 0)
    if mode == "all":
        return tuple(range(1, cap + 1))
    raise ConfigError(f"unknown config mode {mode!r}; expected one of {MODES}")


def enumerate_configs(op: OpSpec, p: int, *, mode: str = "pow2") -> np.ndarray:
    """All valid configurations of ``op`` on ``p`` devices.

    Returns an int64 array ``[K, d]`` in lexicographic order; row 0 is the
    serial configuration ``(1, ..., 1)``.
    """
    if p < 1:
        raise ConfigError(f"device count p={p} must be >= 1")
    per_dim = [
        _candidate_factors(d.size, p, mode) if d.splittable else (1,)
        for d in op.dims
    ]
    rows: list[tuple[int, ...]] = []
    cur = [1] * op.rank

    def rec(i: int, prod: int) -> None:
        if i == op.rank:
            rows.append(tuple(cur))
            return
        for f in per_dim[i]:
            np_ = prod * f
            if np_ > p:
                break  # candidates ascend, so later factors only get larger
            cur[i] = f
            rec(i + 1, np_)
        cur[i] = 1

    rec(0, 1)
    return np.array(rows, dtype=np.int64).reshape(len(rows), op.rank)


@dataclass
class ConfigSpace:
    """Per-node configuration tables for one (graph, p, mode) instance.

    Attributes
    ----------
    p:
        Device count.
    mode:
        Enumeration mode (see module docstring).
    tables:
        Node name -> int64 array ``[K_v, d_v]`` of valid configurations.
    """

    p: int
    mode: str
    tables: dict[str, np.ndarray]

    @classmethod
    def build(cls, graph: CompGraph, p: int, *, mode: str = "pow2") -> "ConfigSpace":
        tables = {op.name: enumerate_configs(op, p, mode=mode) for op in graph}
        return cls(p=p, mode=mode, tables=tables)

    def size(self, name: str) -> int:
        """Number of valid configurations K_v for a node."""
        return self.tables[name].shape[0]

    @property
    def max_size(self) -> int:
        """K = max_v |C(v)| (the paper's per-layer configuration bound)."""
        return max((t.shape[0] for t in self.tables.values()), default=0)

    def configs(self, name: str) -> np.ndarray:
        return self.tables[name]

    def config(self, name: str, index: int) -> tuple[int, ...]:
        return tuple(int(x) for x in self.tables[name][index])

    def index_of(self, name: str, config) -> int:
        """Index of a configuration tuple within a node's table."""
        tab = self.tables[name]
        row = np.asarray(config)
        if row.shape == tab.shape[1:]:
            hit = np.flatnonzero((tab == row).all(axis=1))
            if hit.size:
                return int(hit[0])
        raise ConfigError(
            f"configuration {tuple(config)} not valid for node {name!r} "
            f"(p={self.p}, mode={self.mode!r})")

    def total_cells(self) -> int:
        """Sum of K_v over nodes (a size proxy used in reports)."""
        return int(sum(t.shape[0] for t in self.tables.values()))

    def restrict(self, rows: "dict[str, np.ndarray]") -> "ConfigSpace":
        """Sub-space keeping, per node in ``rows``, only the listed
        configuration rows (original indices); nodes absent from ``rows``
        are dropped entirely.

        Used by the search-space reduction engine: the row arrays double
        as the reduced-index -> original-index back-maps.
        """
        missing = set(rows) - set(self.tables)
        if missing:
            raise ConfigError(
                f"restrict names unknown nodes: {sorted(missing)[:5]}")
        tables = {
            name: self.tables[name][np.asarray(idx, dtype=np.int64)]
            for name, idx in rows.items()
        }
        return ConfigSpace(p=self.p, mode=self.mode, tables=tables)

