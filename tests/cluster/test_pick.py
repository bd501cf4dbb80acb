"""Property tests of the simulator's holder pick and transfer gathering.

`_pick_holders` picks, for every destination shard, one holder of each
group of identical source blocks in one vectorized pass over the overlap
matrix.  These tests compare it, and the transfer tasks that
`_StepBuilder._gather_transfers` builds from it, with a per-element copy
of the rule: a holder on the destination's device first, then the
holder on the fastest link, then the lowest shard index.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.assignment.greedy import greedy_placement
from repro.cluster.simulator import _pick_holders, _StepBuilder
from repro.cluster.topology import ClusterTopology, LinkKind
from repro.core.machine import MachineSpec
from repro.core.strategy import Strategy
from repro.core.tensors import DTYPE_BYTES
from tests.conftest import build_dag

#: Dummy producer tasks the drawn ``ready`` ids point at.
N_READY = 4


def reference_gather(ov, src_blocks, src_devs, dst_devs, ready, topo):
    """Per destination: (picks in group order, local deps, remote), where
    remote maps each source device, in order of its first pick, to its
    (bytes, deps)."""
    groups: dict[bytes, list[int]] = {}
    for j in range(src_blocks.shape[0]):
        groups.setdefault(src_blocks[j].tobytes(), []).append(j)
    out = []
    for i in range(ov.shape[0]):
        dst_dev = int(dst_devs[i])
        picks, local, remote = [], set(), {}
        for members in groups.values():
            holders = [j for j in members if ov[i, j] > 0]
            if not holders:
                continue
            best, best_bw = holders[0], -1.0
            for j in holders:
                d = int(src_devs[j])
                if d == dst_dev:
                    best = j
                    break
                bw = topo.bandwidth(d, dst_dev)
                if bw > best_bw:
                    best, best_bw = j, bw
            picks.append(best)
            src_dev = int(src_devs[best])
            if src_dev == dst_dev:
                local.add(ready[best])
            else:
                nbytes, deps = remote.get(src_dev, (0.0, set()))
                remote[src_dev] = (nbytes + float(ov[i, best]) * DTYPE_BYTES,
                                   deps | {ready[best]})
        out.append((picks, local, remote))
    return out


@st.composite
def gather_cases(draw):
    """An edge's overlap matrix, block groups and device maps on a
    cluster of 1-3 nodes."""
    per_node = draw(st.integers(1, 4))
    p = per_node * draw(st.integers(1, 3))
    machine = MachineSpec(
        "t", peak_flops=1e12,
        # With inter at 10e9, these make intra links faster, equal or
        # slower than inter-node ones, with and without host staging.
        intra_node_bw=draw(st.sampled_from([4e9, 10e9, 12e9, 20e9])),
        inter_node_bw=10e9, devices_per_node=per_node,
        p2p=draw(st.booleans()))
    n_src = draw(st.integers(1, p))
    n_dst = draw(st.integers(1, p))
    # Shards of one group hold the same block: replicas.
    group_of = draw(st.lists(st.integers(0, n_src - 1),
                             min_size=n_src, max_size=n_src))
    src_blocks = np.array([[[g, g + 1]] for g in group_of], dtype=np.int64)
    ov = np.array(draw(st.lists(
        st.lists(st.integers(0, 3), min_size=n_src, max_size=n_src),
        min_size=n_dst, max_size=n_dst)), dtype=np.int64)
    src_devs = np.array(draw(st.permutations(range(p)))[:n_src])
    dst_devs = np.array(draw(st.permutations(range(p)))[:n_dst])
    ready = draw(st.lists(st.integers(0, N_READY - 1),
                          min_size=n_src, max_size=n_src))
    return ClusterTopology(machine, p), ov, src_blocks, src_devs, dst_devs, \
        ready


class TestPick:
    @settings(max_examples=200, deadline=None)
    @given(gather_cases())
    def test_matches_per_element_rule(self, case):
        topo, ov, src_blocks, src_devs, dst_devs, ready = case
        rows, picks = _pick_holders(ov, src_blocks, src_devs, dst_devs,
                                    topo.bandwidths)
        got: list[list[int]] = [[] for _ in range(ov.shape[0])]
        for i, j in zip(rows.tolist(), picks.tolist()):
            got[i].append(j)
        ref = reference_gather(ov, src_blocks, src_devs, dst_devs, ready,
                               topo)
        assert got == [r[0] for r in ref]

    @settings(max_examples=200, deadline=None)
    @given(gather_cases())
    def test_transfers_match_per_element_rule(self, case):
        topo, ov, src_blocks, src_devs, dst_devs, ready = case
        graph = build_dag(1, [])
        strategy = Strategy.serial(graph)
        builder = _StepBuilder(graph, strategy,
                               greedy_placement(graph, strategy, topo.p),
                               topo)
        sched = builder.sched
        for _ in range(N_READY):
            sched.append("fwd", "producer", (("gpu", 0),), 1.0)
        deps = builder._gather_transfers(ov, src_blocks, src_devs, dst_devs,
                                         ready, "xfer", "e")
        ref = reference_gather(ov, src_blocks, src_devs, dst_devs, ready,
                               topo)
        created = []
        for i, (_, local, remote) in enumerate(ref):
            transfers = [t for t in deps[i] if t >= N_READY]
            assert {t for t in deps[i] if t < N_READY} == local
            assert [sched.resource_keys(t) for t in transfers] == [
                (("tx", src), ("rx", int(dst_devs[i]))) for src in remote]
            for t, (src, (nbytes, src_deps)) in zip(transfers,
                                                    remote.items()):
                duration = sched.durations[t]
                assert type(duration) is float
                assert duration == topo.transfer_time(nbytes, src,
                                                      int(dst_devs[i]))
                assert sched.deps[t] == tuple(sorted(src_deps))
                assert sched.labels[t] == f"e->dev{int(dst_devs[i])}"
            created += transfers
        # Transfers are created destination by destination.
        assert created == list(range(N_READY, len(sched)))

    @settings(max_examples=50, deadline=None)
    @given(gather_cases())
    def test_bandwidth_matrix_follows_link_kinds(self, case):
        topo = case[0]
        m = topo.machine
        by_kind = {LinkKind.LOCAL: float("inf"),
                   LinkKind.INTRA_P2P: m.intra_node_bw,
                   LinkKind.INTRA_HOST: m.intra_node_bw / 2.0,
                   LinkKind.INTER: m.inter_node_bw}
        assert topo.bandwidths.tolist() == [
            [by_kind[topo.link_kind(a, b)] for b in range(topo.p)]
            for a in range(topo.p)]
