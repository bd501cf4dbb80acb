"""Collective-communication timing models (ring algorithms).

Collectives are modelled at the granularity the simulator needs: one busy
interval per participating NIC whose duration is the ring schedule's
completion time.  Ring bandwidth is bottlenecked by the slowest link
between consecutive ring members (devices ordered by id, so intra-node
neighbors come first).
"""

from __future__ import annotations

from typing import Sequence

from .topology import ClusterTopology

__all__ = ["group_bottleneck_bw", "ring_allreduce_time", "RING_CHANNELS"]

#: Concurrent ring channels (NCCL-style duplex/multi-ring execution);
#: collective times divide by this.
RING_CHANNELS = 2.0


def group_bottleneck_bw(topo: ClusterTopology, devices: Sequence[int]) -> float:
    """Slowest link bandwidth along the ring over ``devices`` (sorted)."""
    devs = sorted(set(int(d) for d in devices))
    if len(devs) < 2:
        return float("inf")
    ring = devs + [devs[0]]
    return min(topo.bandwidth(a, b) for a, b in zip(ring, ring[1:]))


def ring_allreduce_time(topo: ClusterTopology, nbytes: float,
                        devices: Sequence[int]) -> float:
    """Completion time of a ring all-reduce of ``nbytes`` per device."""
    m = len(set(int(d) for d in devices))
    if m < 2 or nbytes <= 0:
        return 0.0
    bw = group_bottleneck_bw(topo, devices)
    return 2.0 * nbytes * (m - 1) / m / bw / RING_CHANNELS
