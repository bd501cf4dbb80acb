"""Cluster topology: devices packed into nodes, and their bandwidths."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..core.exceptions import SimulationError
from ..core.machine import MachineSpec

__all__ = ["ClusterTopology"]


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
