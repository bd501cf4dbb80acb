"""Unit and property tests for configuration enumeration."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.configs import ConfigSpace, enumerate_configs
from repro.core.exceptions import ConfigError
from repro.core.graph import CompGraph
from tests.conftest import build_dag, make_test_op


class TestEnumerate:
    def test_serial_always_first(self):
        op = make_test_op("o")
        for mode in ("pow2", "divisors", "all"):
            tab = enumerate_configs(op, 4, mode=mode)
            assert tab[0].tolist() == [1, 1]

    def test_product_bound(self):
        op = make_test_op("o", batch=16, width=16)
        for mode in ("pow2", "divisors", "all"):
            tab = enumerate_configs(op, 8, mode=mode)
            assert (np.prod(tab, axis=1) <= 8).all()

    def test_dim_size_cap(self):
        op = make_test_op("o", batch=2, width=16)
        tab = enumerate_configs(op, 8)
        assert tab[:, 0].max() <= 2

    def test_pow2_values(self):
        op = make_test_op("o", batch=16, width=16)
        tab = enumerate_configs(op, 16, mode="pow2")
        vals = set(np.unique(tab))
        assert vals <= {1, 2, 4, 8, 16}

    def test_divisors_mode(self):
        op = make_test_op("o", batch=12, width=12)
        tab = enumerate_configs(op, 6, mode="divisors")
        assert set(np.unique(tab)) <= {1, 2, 3, 6}

    def test_all_mode_includes_nonpow2(self):
        op = make_test_op("o", batch=6, width=6)
        tab = enumerate_configs(op, 6, mode="all")
        assert [3, 1] in tab.tolist()

    def test_unsplittable_dim_pinned(self):
        from repro.ops import Conv2D
        op = Conv2D("c", batch=8, in_channels=4, out_channels=4,
                    in_hw=(8, 8), kernel=3)
        tab = enumerate_configs(op, 8)
        r_idx, s_idx = op.dim_index("r"), op.dim_index("s")
        assert (tab[:, r_idx] == 1).all() and (tab[:, s_idx] == 1).all()

    def test_rows_unique(self):
        op = make_test_op("o", batch=16, width=16)
        tab = enumerate_configs(op, 16)
        assert len({tuple(r) for r in tab.tolist()}) == tab.shape[0]

    def test_mode_nesting(self):
        op = make_test_op("o", batch=8, width=8)
        pow2 = {tuple(r) for r in enumerate_configs(op, 8, mode="pow2").tolist()}
        div = {tuple(r) for r in enumerate_configs(op, 8, mode="divisors").tolist()}
        full = {tuple(r) for r in enumerate_configs(op, 8, mode="all").tolist()}
        assert pow2 <= div <= full  # p = 8 is a power of two

    def test_bad_mode(self):
        with pytest.raises(ConfigError):
            enumerate_configs(make_test_op("o"), 4, mode="fibonacci")

    def test_bad_p(self):
        with pytest.raises(ConfigError):
            enumerate_configs(make_test_op("o"), 0)

    @given(st.integers(1, 64), st.sampled_from(["pow2", "divisors", "all"]))
    def test_enumeration_invariants(self, p, mode):
        op = make_test_op("o", batch=8, width=12)
        tab = enumerate_configs(op, p, mode=mode)
        assert tab.shape[1] == op.rank
        assert (tab >= 1).all()
        assert (np.prod(tab, axis=1) <= p).all()
        assert tab[:, 0].max() <= 8 and tab[:, 1].max() <= 12


class TestConfigSpace:
    def make_space(self, p=4) -> tuple[CompGraph, ConfigSpace]:
        g = build_dag(3, [])
        return g, ConfigSpace.build(g, p)

    def test_sizes(self):
        g, space = self.make_space()
        assert space.max_size == max(space.size(n) for n in g.node_names)
        assert space.total_cells() == sum(space.size(n) for n in g.node_names)

    def test_roundtrip_index(self):
        g, space = self.make_space()
        for n in g.node_names:
            for k in range(space.size(n)):
                assert space.index_of(n, space.config(n, k)) == k

    def test_index_of_invalid(self):
        _, space = self.make_space()
        with pytest.raises(ConfigError):
            space.index_of("n0", (3, 3))
