"""Core of the PaSE reproduction: graphs, costs, orderings, and the DP."""

from .configs import ConfigSpace, enumerate_configs
from .costmodel import CostModel, CostTables, allreduce_bytes
from .dims import Dim, ceil_div, shard_extent, shard_volume
from .dp import DEFAULT_MEMORY_BUDGET, dp_table_profile, find_best_strategy
from .exceptions import (
    ConfigError,
    FaultPlanError,
    GraphError,
    PaseError,
    SearchResourceError,
    SimulationError,
    StrategyError,
)
from .graph import CompGraph, Edge
from .machine import GTX1080TI, RTX2080TI, UNIT_BALANCE, MachineSpec
from .naive import brute_force_strategy, naive_bf_strategy
from .reduction import ReducedProblem, reduce_problem
from .sequencer import (
    SequencedGraph,
    breadth_first_seq,
    generate_seq,
    random_seq,
)
from .stats import STATS_KEYS, STATS_KEY_PREFIXES, validate_stats_keys
from .strategy import SearchResult, Strategy
from .tablecache import TableCache, table_digest
from .tensors import DTYPE_BYTES, TensorSpec

__all__ = [
    "CompGraph",
    "ConfigSpace",
    "CostModel",
    "CostTables",
    "DEFAULT_MEMORY_BUDGET",
    "DTYPE_BYTES",
    "Dim",
    "Edge",
    "FaultPlanError",
    "GTX1080TI",
    "MachineSpec",
    "PaseError",
    "ConfigError",
    "GraphError",
    "RTX2080TI",
    "ReducedProblem",
    "STATS_KEYS",
    "STATS_KEY_PREFIXES",
    "SearchResourceError",
    "SearchResult",
    "SequencedGraph",
    "SimulationError",
    "Strategy",
    "StrategyError",
    "TableCache",
    "TensorSpec",
    "UNIT_BALANCE",
    "allreduce_bytes",
    "breadth_first_seq",
    "brute_force_strategy",
    "ceil_div",
    "dp_table_profile",
    "enumerate_configs",
    "find_best_strategy",
    "generate_seq",
    "naive_bf_strategy",
    "random_seq",
    "reduce_problem",
    "shard_extent",
    "shard_volume",
    "table_digest",
    "validate_stats_keys",
]
