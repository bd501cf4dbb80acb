"""Tests for collective timing models."""

import pytest

from repro.cluster.collectives import (
    RING_CHANNELS,
    group_bottleneck_bw,
    ring_allreduce_time,
)
from repro.cluster.topology import ClusterTopology
from repro.core.machine import GTX1080TI


@pytest.fixture
def topo():
    return ClusterTopology(GTX1080TI, 16)


class TestBottleneck:
    def test_single_device_infinite(self, topo):
        assert group_bottleneck_bw(topo, [3]) == float("inf")

    def test_intra_node_group(self, topo):
        assert group_bottleneck_bw(topo, [0, 1, 2]) == GTX1080TI.intra_node_bw

    def test_cross_node_group_bottlenecked_by_ib(self, topo):
        assert group_bottleneck_bw(topo, [0, 1, 8]) == GTX1080TI.inter_node_bw

    def test_duplicates_ignored(self, topo):
        assert group_bottleneck_bw(topo, [0, 0, 1]) == \
            group_bottleneck_bw(topo, [0, 1])


class TestRingTimes:
    def test_trivial_cases(self, topo):
        assert ring_allreduce_time(topo, 1e6, [3]) == 0.0
        assert ring_allreduce_time(topo, 0.0, [0, 1]) == 0.0

    def test_allreduce_formula(self, topo):
        t = ring_allreduce_time(topo, 1e9, [0, 1, 2, 3])
        expect = 2 * 1e9 * 3 / 4 / GTX1080TI.intra_node_bw / RING_CHANNELS
        assert t == pytest.approx(expect)

    def test_cross_node_slower(self, topo):
        intra = ring_allreduce_time(topo, 1e9, [0, 1, 2, 3])
        cross = ring_allreduce_time(topo, 1e9, [0, 1, 8, 9])
        assert cross > intra

    def test_time_grows_with_group(self, topo):
        t2 = ring_allreduce_time(topo, 1e9, [0, 1])
        t8 = ring_allreduce_time(topo, 1e9, list(range(8)))
        assert t8 > t2  # (m-1)/m grows
