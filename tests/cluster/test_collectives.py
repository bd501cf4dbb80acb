"""Tests for collective timing models."""

import numpy as np
import pytest

from repro.cluster.collectives import (
    RING_CHANNELS,
    group_bottleneck_bws,
    ring_allreduce_times,
)
from repro.cluster.topology import ClusterTopology
from repro.core.machine import GTX1080TI


@pytest.fixture
def topo():
    return ClusterTopology(GTX1080TI, 16)


def groups(*rows):
    """A ``[G, m]`` group array, one ring per argument."""
    return np.array(rows, dtype=np.int64).reshape(len(rows), -1)


class TestBottleneck:
    def test_single_device_infinite(self, topo):
        assert group_bottleneck_bws(topo, groups([3])).tolist() == [np.inf]
        assert group_bottleneck_bws(topo, groups([])).tolist() == [np.inf]

    def test_intra_node_group(self, topo):
        assert group_bottleneck_bws(topo, groups([0, 1, 2])).tolist() == \
            [GTX1080TI.intra_node_bw]

    def test_cross_node_group_bottlenecked_by_ib(self, topo):
        assert group_bottleneck_bws(topo, groups([0, 1, 8])).tolist() == \
            [GTX1080TI.inter_node_bw]

    def test_duplicates_ignored(self, topo):
        # A repeated device adds a self-link, which never bottlenecks.
        assert group_bottleneck_bws(topo, groups([0, 0, 1])).tolist() == \
            group_bottleneck_bws(topo, groups([0, 1])).tolist()


class TestRingTimes:
    def test_trivial_cases(self, topo):
        assert ring_allreduce_times(topo, 1e6, groups([3])).tolist() == [0.0]
        assert ring_allreduce_times(topo, 0.0,
                                    groups([0, 1], [2, 3])).tolist() == \
            [0.0, 0.0]

    def test_allreduce_formula(self, topo):
        t = ring_allreduce_times(topo, 1e9, groups([0, 1, 2, 3]))
        expect = 2 * 1e9 * 3 / 4 / GTX1080TI.intra_node_bw / RING_CHANNELS
        assert t.tolist() == [pytest.approx(expect)]

    def test_cross_node_slower(self, topo):
        intra, cross = ring_allreduce_times(
            topo, 1e9, groups([0, 1, 2, 3], [0, 1, 8, 9]))
        assert cross > intra

    def test_time_grows_with_group(self, topo):
        (t2,) = ring_allreduce_times(topo, 1e9, groups([0, 1]))
        (t8,) = ring_allreduce_times(topo, 1e9, groups(list(range(8))))
        assert t8 > t2  # (m-1)/m grows
