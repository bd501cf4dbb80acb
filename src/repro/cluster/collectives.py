"""Collective-communication timing models (ring algorithms).

Collectives are modelled at the granularity the simulator needs: one busy
interval per participating NIC whose duration is the ring schedule's
completion time.  Ring bandwidth is bottlenecked by the slowest link
between consecutive ring members (devices ordered by id, so intra-node
neighbors come first).
"""

from __future__ import annotations

import numpy as np

from .topology import ClusterTopology

__all__ = ["group_bottleneck_bws", "ring_allreduce_times", "RING_CHANNELS"]

#: Concurrent ring channels (NCCL-style duplex/multi-ring execution);
#: collective times divide by this.
RING_CHANNELS = 2.0


def group_bottleneck_bws(topo: ClusterTopology,
                         groups: np.ndarray) -> np.ndarray:
    """Slowest link bandwidth along the ring over each row of ``groups``
    (``[G, m]`` distinct device ids per row, ring in sorted order)."""
    ring = np.sort(groups, axis=1)
    nxt = np.concatenate((ring[:, 1:], ring[:, :1]), axis=1)
    return topo.bandwidths[ring, nxt].min(axis=1, initial=np.inf)


def ring_allreduce_times(topo: ClusterTopology, nbytes: float,
                         groups: np.ndarray) -> np.ndarray:
    """Completion time of a ring all-reduce of ``nbytes`` per device, for
    each row of ``groups`` (``[G, m]`` distinct device ids per row)."""
    m = groups.shape[1]
    if m < 2 or nbytes <= 0:
        return np.zeros(groups.shape[0])
    return 2.0 * nbytes * (m - 1) / m / group_bottleneck_bws(topo, groups) \
        / RING_CHANNELS
