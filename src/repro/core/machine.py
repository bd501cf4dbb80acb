"""Machine descriptions: device peak performance and interconnect bandwidth.

The analytic cost model only needs the FLOP-to-byte ratio ``r = F / B``
(paper, Equation 1).  The cluster simulator additionally needs the topology
breakdown: devices per node, intra-node (PCIe, with or without peer-to-peer
access) and inter-node (InfiniBand) bandwidths.

The two built-in profiles encode the paper's hardware contrast:

* ``GTX1080TI``: moderate peak FLOPS, PCIe peer-to-peer enabled — the
  "high machine balance" system of Fig. 6a.
* ``RTX2080TI``: higher peak FLOPS but no P2P over PCIe (staged through
  host memory), hence far lower effective bandwidth — the "low machine
  balance" system of Fig. 6b where strategy quality matters most.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["MachineSpec", "GTX1080TI", "RTX2080TI", "UNIT_BALANCE",
           "MACHINES"]


@dataclass(frozen=True, slots=True)
class MachineSpec:
    """A homogeneous multi-node GPU cluster description.

    Attributes
    ----------
    name:
        Profile label used in reports.
    peak_flops:
        Per-device peak floating-point rate (FLOP/s).
    intra_node_bw:
        Per-link bandwidth between devices in the same node (bytes/s).
    inter_node_bw:
        Per-NIC bandwidth between nodes (bytes/s).
    devices_per_node:
        GPUs per node (the paper's systems have 8).
    p2p:
        Whether intra-node transfers go device-to-device (True) or must be
        staged through host memory (False; 2080Ti's PCIe limitation).
    """

    name: str
    peak_flops: float
    intra_node_bw: float
    inter_node_bw: float
    devices_per_node: int = 8
    p2p: bool = True

    def __post_init__(self) -> None:
        if self.peak_flops <= 0 or self.intra_node_bw <= 0 or self.inter_node_bw <= 0:
            raise ValueError("machine rates must be positive")
        if self.devices_per_node < 1:
            raise ValueError("devices_per_node must be >= 1")

    @property
    def link_bandwidth(self) -> float:
        """Average per-link bandwidth B used by the analytic model.

        The paper uses a single average bandwidth; we take the geometric
        mean of the intra- and inter-node rates so that both tiers
        influence the ranking oracle.
        """
        return (self.intra_node_bw * self.inter_node_bw) ** 0.5

    @property
    def flop_byte_ratio(self) -> float:
        """r = F / B, the FLOP-to-byte ratio of Equation (1)."""
        return self.peak_flops / self.link_bandwidth

    def nodes_for(self, p: int) -> int:
        """Number of nodes hosting ``p`` devices."""
        return -(-p // self.devices_per_node)


#: GeForce GTX 1080 Ti cluster: ~11.3 TFLOPS fp32; PCIe 3.0 x16 with
#: peer-to-peer (~12 GB/s effective); EDR InfiniBand (~10 GB/s effective).
GTX1080TI = MachineSpec(
    name="1080Ti",
    peak_flops=11.3e12,
    intra_node_bw=12.0e9,
    inter_node_bw=10.0e9,
    devices_per_node=8,
    p2p=True,
)

#: GeForce RTX 2080 Ti cluster: ~13.4 TFLOPS fp32; no P2P over PCIe, so
#: intra-node transfers stage through the host (~4 GB/s effective); same
#: InfiniBand fabric.  Machine balance is ~4x worse than the 1080Ti system.
RTX2080TI = MachineSpec(
    name="2080Ti",
    peak_flops=13.4e12,
    intra_node_bw=4.0e9,
    inter_node_bw=10.0e9,
    devices_per_node=8,
    p2p=False,
)

#: CLI/spec name -> machine registry (the names `pase --machine` and
#: sweep specs accept).
MACHINES: dict[str, MachineSpec] = {
    "1080ti": GTX1080TI,
    "2080ti": RTX2080TI,
}

#: A balance-1 machine (r == 1): layer costs and transfer volumes weigh
#: equally.  Handy for unit tests where hand-computed costs are checked.
UNIT_BALANCE = MachineSpec(
    name="unit",
    peak_flops=1.0,
    intra_node_bw=1.0,
    inter_node_bw=1.0,
    devices_per_node=8,
    p2p=True,
)
