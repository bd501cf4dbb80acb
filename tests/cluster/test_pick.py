"""Property tests of the simulator's holder pick and transfer gathering.

`_pick_holders` picks, for every destination shard, one holder of each
group of identical source blocks in one vectorized pass over the overlap
matrix.  These tests compare it, and the transfer block that
`_StepBuilder._gather_transfers` adds from it, with the per-element rule
of ``reference.py``: a holder on the destination's device first, then
the holder on the fastest link, then the lowest shard index.
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
from tests.cluster.reference import pick_holders
from tests.conftest import build_dag

#: Dummy producer tasks the drawn ``ready`` ids point at.
N_READY = 4


def reference_gather(ov, src_blocks, src_devs, dst_devs, ready, topo):
    """Per destination: (picks in group order, local deps, remote), where
    remote maps each source device, in order of its first pick, to its
    (bytes, deps)."""
    out = []
    for i, picks in enumerate(pick_holders(ov, src_blocks, src_devs,
                                           dst_devs, topo)):
        dst_dev = int(dst_devs[i])
        local, remote = set(), {}
        for j in picks:
            src_dev = int(src_devs[j])
            if src_dev == dst_dev:
                local.add(ready[j])
            else:
                nbytes, deps = remote.get(src_dev, (0.0, set()))
                remote[src_dev] = (nbytes + float(ov[i, j]) * DTYPE_BYTES,
                                   deps | {ready[j]})
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
    # Shards of one group hold the same block: replicas.  A node's
    # groups are equal in size, since its shards form a grid.
    m = draw(st.integers(1, p))
    n_src = m * draw(st.integers(1, p // m))
    shuffled = draw(st.permutations(range(n_src)))
    groups = np.array(sorted(sorted(shuffled[g:g + m])
                             for g in range(0, n_src, m)), dtype=np.int64)
    group_of = np.empty(n_src, dtype=np.int64)
    group_of[groups] = np.arange(groups.shape[0])[:, None]
    src_blocks = np.array([[[g, g + 1]] for g in group_of], dtype=np.int64)
    n_dst = draw(st.integers(1, p))
    ov = np.array(draw(st.lists(
        st.lists(st.integers(0, 3), min_size=n_src, max_size=n_src),
        min_size=n_dst, max_size=n_dst)), dtype=np.int64)
    src_devs = np.array(draw(st.permutations(range(p)))[:n_src])
    dst_devs = np.array(draw(st.permutations(range(p)))[:n_dst])
    ready = draw(st.lists(st.integers(0, N_READY - 1),
                          min_size=n_src, max_size=n_src))
    return ClusterTopology(machine, p), ov, groups, src_blocks, src_devs, \
        dst_devs, ready


class TestPick:
    @settings(max_examples=200, deadline=None)
    @given(gather_cases())
    def test_matches_per_element_rule(self, case):
        topo, ov, groups, src_blocks, src_devs, dst_devs, ready = case
        rows, picks = _pick_holders(ov, groups, src_devs, dst_devs,
                                    topo.bandwidths)
        got: list[list[int]] = [[] for _ in range(ov.shape[0])]
        for i, j in zip(rows.tolist(), picks.tolist()):
            got[i].append(j)
        assert got == pick_holders(ov, src_blocks, src_devs, dst_devs, topo)

    @settings(max_examples=200, deadline=None)
    @given(gather_cases())
    def test_transfers_match_per_element_rule(self, case):
        topo, ov, groups, src_blocks, src_devs, dst_devs, ready = case
        graph = build_dag(1, [])
        strategy = Strategy.serial(graph)
        builder = _StepBuilder(graph, strategy,
                               greedy_placement(graph, strategy, topo.p),
                               topo)
        sched = builder.sched
        sched.add("fwd", ("producer", ""), np.arange(N_READY),
                  np.zeros(N_READY, dtype=np.int64), 1.0)
        rows, ids = builder._gather_transfers(
            ov, groups, src_devs, dst_devs, np.asarray(ready), "e")
        ref = reference_gather(ov, src_blocks, src_devs, dst_devs, ready,
                               topo)
        arrays = sched.arrays()
        keys, labels = sched.resource_keys(), sched.labels()
        created = []
        for i, (_, local, remote) in enumerate(ref):
            mine = ids[rows == i].tolist()
            transfers = [t for t in mine if t >= N_READY]
            assert {t for t in mine if t < N_READY} == local
            assert [keys[t] for t in transfers] == [
                (("tx", src), ("rx", int(dst_devs[i]))) for src in remote]
            for t, (src, (nbytes, src_deps)) in zip(transfers,
                                                    remote.items()):
                duration = arrays.durations[t]
                assert type(duration) is float
                assert duration == topo.transfer_time(nbytes, src,
                                                      int(dst_devs[i]))
                u = int(np.searchsorted(arrays.unit_first, t))
                assert arrays.unit_first[u] == t
                assert sorted(arrays.deps[arrays.dep_ptr[u]:
                                          arrays.dep_ptr[u + 1]].tolist()) \
                    == sorted(src_deps)
                assert labels[t] == f"e->dev{int(dst_devs[i])}"
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
