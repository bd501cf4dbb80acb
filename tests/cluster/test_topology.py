"""Tests for cluster topology: node packing and the bandwidth matrix."""

import pytest

from repro.cluster.topology import ClusterTopology
from repro.core.exceptions import SimulationError
from repro.core.machine import GTX1080TI, RTX2080TI


class TestTopology:
    def test_node_packing(self):
        bw = ClusterTopology(GTX1080TI, 16).bandwidths
        # Devices 0..7 share node 0, device 8 starts node 1.
        assert bw[0, 7] == GTX1080TI.intra_node_bw
        assert bw[0, 8] == GTX1080TI.inter_node_bw
        assert bw[8, 15] == GTX1080TI.intra_node_bw

    def test_device_bounds(self):
        assert ClusterTopology(GTX1080TI, 4).bandwidths.shape == (4, 4)
        with pytest.raises(SimulationError):
            ClusterTopology(GTX1080TI, 0)

    def test_link_kinds(self):
        bw = ClusterTopology(GTX1080TI, 16).bandwidths
        assert bw[3, 3] == float("inf")
        assert bw[0, 7] == GTX1080TI.intra_node_bw
        assert bw[0, 8] == GTX1080TI.inter_node_bw

    def test_no_p2p_machine(self):
        bw = ClusterTopology(RTX2080TI, 8).bandwidths
        # Host staging halves the effective intra bandwidth.
        assert bw[0, 1] == RTX2080TI.intra_node_bw / 2

    def test_bandwidths_ordered(self):
        bw = ClusterTopology(GTX1080TI, 16).bandwidths
        assert bw[0, 0] == float("inf")
        assert bw[0, 1] > bw[0, 8]

    def test_transfer_time(self):
        """A transfer takes its bytes over the pair's bandwidth: free on
        one device, one second for ``inter_node_bw`` bytes across nodes."""
        bw = ClusterTopology(GTX1080TI, 16).bandwidths
        assert 1e9 / bw[3, 3] == 0.0
        assert GTX1080TI.inter_node_bw / bw[0, 8] == pytest.approx(1.0)
