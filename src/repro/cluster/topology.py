"""Cluster topology: devices, nodes, link classes and bandwidths."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..core.exceptions import SimulationError
from ..core.machine import MachineSpec

__all__ = ["LinkKind", "ClusterTopology"]


class LinkKind(enum.Enum):
    """Classes of device-to-device paths."""

    LOCAL = "local"          # same device (no transfer)
    INTRA_P2P = "intra_p2p"  # same node, peer-to-peer PCIe
    INTRA_HOST = "intra_host"  # same node, staged through host memory
    INTER = "inter"          # across nodes, InfiniBand


@dataclass(frozen=True)
class ClusterTopology:
    """``p`` devices packed into ``machine.devices_per_node``-GPU nodes.

    Devices are numbered consecutively; device ``d`` lives on node
    ``d // devices_per_node``.  The greedy placement's low-device-first
    bias therefore also packs cooperating shards into as few nodes as
    possible, as the paper's Mesh-TensorFlow runs do.
    """

    machine: MachineSpec
    p: int

    def __post_init__(self) -> None:
        if self.p < 1:
            raise SimulationError(f"cluster needs >= 1 device, got {self.p}")

    @property
    def num_nodes(self) -> int:
        return self.machine.nodes_for(self.p)

    def node_of(self, dev: int) -> int:
        if not 0 <= dev < self.p:
            raise SimulationError(f"device {dev} outside 0..{self.p - 1}")
        return dev // self.machine.devices_per_node

    def link_kind(self, a: int, b: int) -> LinkKind:
        if a == b:
            return LinkKind.LOCAL
        if self.node_of(a) == self.node_of(b):
            return LinkKind.INTRA_P2P if self.machine.p2p else LinkKind.INTRA_HOST
        return LinkKind.INTER

    def bandwidth(self, a: int, b: int) -> float:
        """Bytes/s of the path between two devices (inf for local)."""
        if not (0 <= a < self.p and 0 <= b < self.p):
            raise SimulationError(
                f"devices {a}, {b}: outside 0..{self.p - 1}")
        return float(self.bandwidths[a, b])

    @cached_property
    def bandwidths(self) -> np.ndarray:
        """Bytes/s between every device pair, as a ``[p, p]`` array.

        Local paths are inf, paths within a node get the machine's
        intra-node bandwidth and paths across nodes its inter-node one.
        """
        node = np.arange(self.p) // self.machine.devices_per_node
        intra = self.machine.intra_node_bw
        if not self.machine.p2p:
            # Host-staged copies traverse PCIe twice (device->host->device).
            intra = intra / 2.0
        out = np.where(node[:, None] == node[None, :], intra,
                       self.machine.inter_node_bw).astype(np.float64)
        np.fill_diagonal(out, np.inf)
        return out

    def transfer_time(self, nbytes: float, a: int, b: int) -> float:
        if a == b or nbytes <= 0:
            return 0.0
        return nbytes / self.bandwidth(a, b)
