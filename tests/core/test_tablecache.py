"""Tests for the content-addressed on-disk cost-table cache."""

import json

import numpy as np
import pytest

from repro.core import costmodel
from repro.core.configs import ConfigSpace
from repro.core.costmodel import CostModel
from repro.core.machine import GTX1080TI, RTX2080TI, UNIT_BALANCE
from repro.core.tablecache import TableCache, open_npz_mmap, table_digest
from repro.runtime import RunContext
from tests.conftest import build_dag


def setup_instance(p: int = 4, machine=GTX1080TI, **model_kw):
    g = build_dag(3, [(0, 2)], param_mask=0b101, reduction_mask=0b010)
    space = ConfigSpace.build(g, p)
    cm = CostModel(machine, **model_kw)
    return g, space, cm


def tables_equal(a, b) -> bool:
    return (set(a.lc) == set(b.lc)
            and set(a.pair_tx) == set(b.pair_tx)
            and all(np.array_equal(a.lc[n], b.lc[n]) for n in a.lc)
            and all(np.array_equal(a.pair_tx[k], b.pair_tx[k])
                    for k in a.pair_tx))


class TestDigest:
    def test_stable_across_rebuilds(self):
        g1, s1, m1 = setup_instance()
        g2, s2, m2 = setup_instance()
        assert table_digest(g1, s1, m1) == table_digest(g2, s2, m2)

    def test_sensitive_to_p(self):
        g, s4, cm = setup_instance(p=4)
        _, s8, _ = setup_instance(p=8)
        assert table_digest(g, s4, cm) != table_digest(g, s8, cm)

    def test_sensitive_to_mode(self):
        g, _, cm = setup_instance()
        pow2 = ConfigSpace.build(g, 4, mode="pow2")
        divs = ConfigSpace.build(g, 4, mode="divisors")
        assert table_digest(g, pow2, cm) != table_digest(g, divs, cm)

    def test_sensitive_to_machine(self):
        g, s, cm1 = setup_instance(machine=GTX1080TI)
        _, _, cm2 = setup_instance(machine=RTX2080TI)
        assert table_digest(g, s, cm1) != table_digest(g, s, cm2)

    def test_sensitive_to_ablation_flags(self):
        g, s, base = setup_instance()
        _, _, ablated = setup_instance(include_grad_sync=False)
        assert table_digest(g, s, base) != table_digest(g, s, ablated)

    def test_sensitive_to_graph_shape(self):
        _, s, cm = setup_instance()
        small = build_dag(3, [(0, 2)], param_mask=0b101,
                          reduction_mask=0b010)
        big = build_dag(3, [(0, 2)], batch=8, param_mask=0b101,
                        reduction_mask=0b010)
        s_small = ConfigSpace.build(small, 4)
        s_big = ConfigSpace.build(big, 4)
        assert table_digest(small, s_small, cm) != \
            table_digest(big, s_big, cm)

    def test_sensitive_to_pruned_space(self):
        """Slicing a node's config table changes the digest even though
        (p, mode) are unchanged."""
        g, space, cm = setup_instance()
        pruned_tabs = dict(space.tables)
        name = next(iter(pruned_tabs))
        pruned_tabs[name] = pruned_tabs[name][:1]
        pruned = ConfigSpace(p=space.p, mode=space.mode, tables=pruned_tabs)
        assert table_digest(g, space, cm) != table_digest(g, pruned, cm)


class TestStoreLoad:
    def test_roundtrip(self, tmp_path):
        g, space, cm = setup_instance()
        tables = cm.build_tables(g, space)
        cache = TableCache(tmp_path)
        digest = table_digest(g, space, cm)
        path = cache.store(digest, tables)
        assert path is not None and path.is_file()
        loaded = cache.load(digest, g, space, cm.machine)
        assert loaded is not None
        assert tables_equal(tables, loaded)
        assert loaded.derived is False

    def test_miss_returns_none(self, tmp_path):
        g, space, cm = setup_instance()
        cache = TableCache(tmp_path)
        assert cache.load("0" * 64, g, space, cm.machine) is None

    def test_corrupt_entry_is_miss_and_removed(self, tmp_path):
        g, space, cm = setup_instance()
        cache = TableCache(tmp_path)
        digest = table_digest(g, space, cm)
        cache.store(digest, cm.build_tables(g, space))
        path = cache.path_for(digest)
        path.write_bytes(b"not an npz archive")
        assert cache.load(digest, g, space, cm.machine) is None
        assert not path.exists()

    def test_shape_mismatch_is_miss(self, tmp_path):
        """An entry whose arrays don't match the live space is dropped
        (defense in depth — the digest should prevent this)."""
        g, space, cm = setup_instance(p=4)
        _, space8, _ = setup_instance(p=8)
        cache = TableCache(tmp_path)
        digest = table_digest(g, space, cm)
        cache.store(digest, cm.build_tables(g, space))
        assert cache.load(digest, g, space8, cm.machine) is None
        assert not cache.path_for(digest).exists()

    def test_derived_tables_refused(self, tmp_path):
        g, space, cm = setup_instance()
        tables = cm.build_tables(g, space)
        from dataclasses import replace
        cache = TableCache(tmp_path)
        assert cache.store("d" * 64, replace(tables, derived=True)) is None
        assert list(cache.entries()) == []

    def test_coarsened_tables_never_stored(self, tmp_path):
        """The resilience ladder's sliced tables must not poison the
        cache: they are flagged derived and refused."""
        from repro.resilience import coarsen_config_space
        g, space, cm = setup_instance()
        tables = cm.build_tables(g, space)
        _, coarse = coarsen_config_space(space, tables)
        assert coarse.derived is True
        cache = TableCache(tmp_path)
        assert cache.store(table_digest(g, space, cm), coarse) is None


class TestMemoryEntries:
    """Memory-covering digests and the ``mem_*`` payload round-trip."""

    def test_memory_flag_changes_digest(self):
        g, space, cm = setup_instance()
        assert table_digest(g, space, cm) != \
            table_digest(g, space, cm, memory=True)

    def test_scalar_digest_unchanged_by_flag_default(self):
        g, space, cm = setup_instance()
        assert table_digest(g, space, cm) == \
            table_digest(g, space, cm, memory=False)

    def test_mem_roundtrip(self, tmp_path):
        g, space, cm = setup_instance()
        tables = cm.build_tables(g, space, memory=True)
        cache = TableCache(tmp_path)
        digest = table_digest(g, space, cm, memory=True)
        path = cache.store(digest, tables)
        assert path is not None
        loaded = cache.load(digest, g, space, cm.machine)
        assert loaded is not None and loaded.mem is not None
        assert tables_equal(tables, loaded)
        assert set(loaded.mem) == set(tables.mem)
        for n in tables.mem:
            assert np.array_equal(tables.mem[n], loaded.mem[n])

    def test_scalar_entry_loads_without_mem(self, tmp_path):
        g, space, cm = setup_instance()
        cache = TableCache(tmp_path)
        digest = table_digest(g, space, cm)
        cache.store(digest, cm.build_tables(g, space))
        loaded = cache.load(digest, g, space, cm.machine)
        assert loaded is not None and loaded.mem is None

    def test_mem_manifest_and_checksum(self, tmp_path):
        g, space, cm = setup_instance()
        cache = TableCache(tmp_path)
        digest = table_digest(g, space, cm, memory=True)
        path = cache.store(digest, cm.build_tables(g, space, memory=True))
        with np.load(path, allow_pickle=False) as data:
            manifest = json.loads(str(data["manifest"]))
            assert set(manifest["mem_nodes"]) == set(g.node_names)
            assert all(f"mem_{i}" in data.files
                       for i in range(len(manifest["mem_nodes"])))

    def test_tampered_mem_payload_quarantined(self, tmp_path):
        g, space, cm = setup_instance()
        cache = TableCache(tmp_path)
        digest = table_digest(g, space, cm, memory=True)
        path = cache.store(digest, cm.build_tables(g, space, memory=True))
        with np.load(path, allow_pickle=False) as data:
            arrays = {k: data[k] for k in data.files}
        arrays["mem_0"] = arrays["mem_0"] + 1.0
        np.savez(path, **arrays)
        assert cache.load(digest, g, space, cm.machine) is None
        assert cache.quarantined == 1

    def test_build_tables_memory_cache_hit(self, tmp_path):
        g, space, cm = setup_instance()
        cache = TableCache(tmp_path)
        ctx = RunContext(cache=cache)
        cold = cm.build_tables(g, space, memory=True, ctx=ctx)
        warm = cm.build_tables(g, space, memory=True, ctx=ctx)
        assert warm.build_stats["cache_hit"] == 1.0
        assert warm.mem is not None
        for n in cold.mem:
            assert np.array_equal(cold.mem[n], warm.mem[n])
        # A scalar build keys a *different* entry — no false sharing.
        scalar = cm.build_tables(g, space, ctx=ctx)
        assert scalar.build_stats["cache_hit"] == 0.0
        assert scalar.mem is None


class TestBuildTablesIntegration:
    def test_cold_build_populates(self, tmp_path):
        g, space, cm = setup_instance()
        cache = TableCache(tmp_path)
        tables = cm.build_tables(g, space, ctx=RunContext(cache=cache))
        assert tables.build_stats["cache_hit"] == 0.0
        assert len(list(cache.entries())) == 1

    def test_warm_hit_skips_all_construction(self, tmp_path, monkeypatch):
        g, space, cm = setup_instance()
        cache = TableCache(tmp_path)
        cold = cm.build_tables(g, space, ctx=RunContext(cache=cache))

        def boom(*args, **kwargs):
            raise AssertionError("matrix construction ran on a cache hit")

        # Each patch is on the cold path: an uncached build raises.  The
        # edge patch goes first, so its raise cannot come from the nodes.
        for owner, name in ((costmodel, "_transfer_bytes"),
                            (CostModel, "layer_cost")):
            monkeypatch.setattr(owner, name, boom)
            with pytest.raises(AssertionError, match="matrix construction"):
                cm.build_tables(g, space)
        warm = cm.build_tables(g, space, ctx=RunContext(cache=cache))
        assert warm.build_stats["cache_hit"] == 1.0
        assert tables_equal(cold, warm)

    def test_hit_flows_into_search_stats(self, tmp_path):
        from repro.core.dp import find_best_strategy
        g, space, cm = setup_instance()
        cache = TableCache(tmp_path)
        cm.build_tables(g, space, ctx=RunContext(cache=cache))
        warm = cm.build_tables(g, space, ctx=RunContext(cache=cache))
        res = find_best_strategy(g, space, warm)
        assert res.stats["table_cache_hit"] == 1.0
        assert res.stats["table_build_seconds"] >= 0.0

    def test_different_machines_get_distinct_entries(self, tmp_path):
        g, space, _ = setup_instance()
        cache = TableCache(tmp_path)
        ctx = RunContext(cache=cache)
        CostModel(GTX1080TI).build_tables(g, space, ctx=ctx)
        CostModel(UNIT_BALANCE).build_tables(g, space, ctx=ctx)
        assert len(list(cache.entries())) == 2


class TestEviction:
    def fill(self, cache, n):
        """Store ``n`` distinct instances; returns their digests in
        insertion (oldest-first) order."""
        import os
        import time
        digests = []
        for i, p in enumerate([2, 4, 8, 16, 32][:n]):
            g, space, cm = setup_instance(p=p)
            digest = table_digest(g, space, cm)
            cache.store(digest, cm.build_tables(g, space))
            # Distinct mtimes so LRU order is well-defined on coarse
            # filesystem timestamps.
            os.utime(cache.path_for(digest),
                     (time.time() + i, time.time() + i))
            digests.append(digest)
        return digests

    def test_oldest_evicted_first(self, tmp_path):
        cache = TableCache(tmp_path)
        digests = self.fill(cache, 3)
        one_entry = cache.path_for(digests[0]).stat().st_size
        cache.max_bytes = int(one_entry * 1.5)
        cache.evict()
        remaining = {p.stem for p in cache.entries()}
        assert digests[0] not in remaining  # oldest gone
        assert cache.total_bytes() <= cache.max_bytes

    def test_store_respects_cap_and_keeps_newest(self, tmp_path):
        g, space, cm = setup_instance(p=4)
        probe = TableCache(tmp_path / "probe")
        digest = table_digest(g, space, cm)
        probe.store(digest, cm.build_tables(g, space))
        size = probe.path_for(digest).stat().st_size

        cache = TableCache(tmp_path / "real", max_bytes=int(size * 1.5))
        self.fill(cache, 3)
        stems = {p.stem for p in cache.entries()}
        assert len(stems) >= 1
        assert cache.total_bytes() <= cache.max_bytes

    def test_load_touches_entry(self, tmp_path):
        import os
        g, space, cm = setup_instance()
        cache = TableCache(tmp_path)
        digest = table_digest(g, space, cm)
        cache.store(digest, cm.build_tables(g, space))
        path = cache.path_for(digest)
        os.utime(path, (1.0, 1.0))  # pretend it is ancient
        before = path.stat().st_mtime
        cache.load(digest, g, space, cm.machine)
        assert path.stat().st_mtime > before

    def test_clear(self, tmp_path):
        cache = TableCache(tmp_path)
        self.fill(cache, 2)
        assert cache.clear() == 2
        assert list(cache.entries()) == []

    def test_invalid_cap_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            TableCache(tmp_path, max_bytes=0)


class TestManifest:
    def test_manifest_contents(self, tmp_path):
        g, space, cm = setup_instance()
        cache = TableCache(tmp_path)
        digest = table_digest(g, space, cm)
        path = cache.store(digest, cm.build_tables(g, space))
        with np.load(path, allow_pickle=False) as data:
            manifest = json.loads(str(data["manifest"]))
        assert manifest["digest"] == digest
        assert set(manifest["nodes"]) == set(g.node_names)
        assert len(manifest["pairs"]) == len(
            {(e.src, e.dst) for e in g.edges})

    def test_manifest_carries_payload_checksum(self, tmp_path):
        g, space, cm = setup_instance()
        cache = TableCache(tmp_path)
        path = cache.store(table_digest(g, space, cm),
                           cm.build_tables(g, space))
        with np.load(path, allow_pickle=False) as data:
            manifest = json.loads(str(data["manifest"]))
        assert len(manifest["payload_checksum"]) == 64


class TestQuarantine:
    def _stored(self, tmp_path):
        g, space, cm = setup_instance()
        cache = TableCache(tmp_path)
        digest = table_digest(g, space, cm)
        cache.store(digest, cm.build_tables(g, space))
        return g, space, cm, cache, digest

    def test_truncated_entry_quarantined_not_crashed(self, tmp_path):
        g, space, cm, cache, digest = self._stored(tmp_path)
        path = cache.path_for(digest)
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) // 2])  # torn write / bad disk
        assert cache.load(digest, g, space, cm.machine) is None
        assert cache.quarantined == 1
        assert not path.exists()
        assert (cache.corrupt_dir / path.name).is_file()

    def test_bitflip_fails_checksum_and_quarantines(self, tmp_path):
        """A valid npz whose array bytes were altered (stale manifest
        checksum) must be caught by the integrity check, not returned."""
        g, space, cm, cache, digest = self._stored(tmp_path)
        path = cache.path_for(digest)
        with np.load(path, allow_pickle=False) as data:
            arrays = {k: data[k] for k in data.files}
        arrays["lc_0"] = arrays["lc_0"] + 1.0
        np.savez(path, **arrays)
        assert cache.load(digest, g, space, cm.machine) is None
        assert cache.quarantined == 1
        assert (cache.corrupt_dir / path.name).is_file()

    def test_quarantined_entries_invisible_to_listing(self, tmp_path):
        g, space, cm, cache, digest = self._stored(tmp_path)
        cache.path_for(digest).write_bytes(b"garbage")
        cache.load(digest, g, space, cm.machine)
        assert list(cache.entries()) == []
        assert cache.total_bytes() == 0

    def test_build_tables_rebuilds_after_quarantine(self, tmp_path):
        g, space, cm, cache, digest = self._stored(tmp_path)
        cache.path_for(digest).write_bytes(b"garbage")
        reference = cm.build_tables(g, space)
        rebuilt = cm.build_tables(g, space, ctx=RunContext(cache=cache))
        assert rebuilt.build_stats["cache_hit"] == 0.0
        assert cache.quarantined == 1
        assert tables_equal(rebuilt, reference)
        # The rebuild re-populated the cache; next build is a clean hit.
        again = cm.build_tables(g, space, ctx=RunContext(cache=cache))
        assert again.build_stats["cache_hit"] == 1.0
        assert tables_equal(again, reference)

    def test_compressed_entry_quarantined_and_rebuilt(self, tmp_path):
        """`store` never writes a compressed entry and the mmap reader,
        the only one, cannot map it: even under a valid digest and
        checksum it is quarantined and rebuilt, never served."""
        g, space, cm, cache, digest = self._stored(tmp_path)
        path = cache.path_for(digest)
        with np.load(path, allow_pickle=False) as data:
            arrays = {k: data[k] for k in data.files}
        np.savez_compressed(path, **arrays)
        rebuilt = cm.build_tables(g, space, ctx=RunContext(cache=cache))
        assert rebuilt.build_stats["cache_hit"] == 0.0
        assert cache.quarantined == 1
        assert (cache.corrupt_dir / path.name).is_file()
        assert tables_equal(rebuilt, cm.build_tables(g, space))


class TestNpzMmap:
    def write_npz(self, path):
        rng = np.random.default_rng(7)
        arrays = {"alpha": rng.random((13, 5)),
                  "beta": np.arange(9, dtype=np.float64),
                  "gamma": rng.random((2, 3, 4))}
        np.savez(path, **arrays)
        return arrays

    def test_views_match_eager_load(self, tmp_path):
        path = tmp_path / "tables.npz"
        arrays = self.write_npz(path)
        views = open_npz_mmap(path)
        eager = np.load(path)
        assert set(views) == set(arrays)
        for key, ref in arrays.items():
            assert np.array_equal(views[key], ref)
            assert np.array_equal(views[key], eager[key])

    def test_views_are_read_only(self, tmp_path):
        path = tmp_path / "tables.npz"
        self.write_npz(path)
        views = open_npz_mmap(path)
        for arr in views.values():
            assert not arr.flags.writeable
        with pytest.raises(ValueError):
            views["alpha"][0, 0] = 42.0

    def test_compressed_archive_rejected(self, tmp_path):
        path = tmp_path / "z.npz"
        np.savez_compressed(path, x=np.arange(4.0))
        with pytest.raises(ValueError):
            open_npz_mmap(path)

    def test_views_survive_file_deletion(self, tmp_path):
        path = tmp_path / "tables.npz"
        arrays = self.write_npz(path)
        views = open_npz_mmap(path)
        path.unlink()
        assert np.array_equal(views["alpha"], arrays["alpha"])


def _hammer_cache(root: str, seed: int, rounds: int) -> None:
    """Child-process body: write dummy entries and evict repeatedly.

    Module-level so multiprocessing can pickle it by reference.  Exits
    non-zero on any exception — the parent asserts on the exit code.
    """
    import os
    import sys

    try:
        cache = TableCache(root, max_bytes=64 * 1024)
        payload = os.urandom(8 * 1024)
        for i in range(rounds):
            digest = f"{seed:02d}{i:04d}" + "e" * 58
            tmp = cache.root / f".w{seed}.tmp"
            cache.root.mkdir(parents=True, exist_ok=True)
            tmp.write_bytes(payload)
            os.replace(tmp, cache.path_for(digest))
            cache.evict()
            cache.total_bytes()
    except BaseException as err:  # pragma: no cover - failure path
        print(f"hammer[{seed}] died: {type(err).__name__}: {err}",
              file=sys.stderr)
        os._exit(1)
    os._exit(0)


class TestReadersRaceEviction:
    """`load` does not take the cache lock, so a concurrent `evict` can
    delete the entry while a reader is inside it."""

    def stored(self, tmp_path):
        g, space, cm = setup_instance()
        cache = TableCache(tmp_path)
        digest = table_digest(g, space, cm)
        cache.store(digest, cm.build_tables(g, space))
        return g, space, cm, cache, digest

    def test_evicted_before_read_is_plain_miss(self, tmp_path, monkeypatch,
                                               caplog):
        import repro.core.tablecache as tablecache

        g, space, cm, cache, digest = self.stored(tmp_path)
        real = tablecache.open_npz_mmap

        def evict_then_read(path):
            cache.path_for(digest).unlink()
            return real(path)

        monkeypatch.setattr(tablecache, "open_npz_mmap", evict_then_read)
        assert cache.load(digest, g, space, cm.machine) is None
        assert cache.quarantined == 0
        assert not cache.corrupt_dir.exists()
        assert "quarantining" not in caplog.text

    def test_evicted_after_verified_read_is_hit(self, tmp_path,
                                                monkeypatch):
        import os

        g, space, cm, cache, digest = self.stored(tmp_path)
        real = os.utime

        def evict_then_touch(path, *args, **kwargs):
            cache.path_for(digest).unlink()
            return real(path, *args, **kwargs)

        monkeypatch.setattr(os, "utime", evict_then_touch)
        loaded = cache.load(digest, g, space, cm.machine)
        assert loaded is not None
        assert tables_equal(cm.build_tables(g, space), loaded)
        assert cache.quarantined == 0


class TestConcurrentWriters:
    def test_two_processes_hammering_one_cache(self, tmp_path):
        """Two writers storing and evicting against one directory must
        never crash (stat/unlink races) nor blow past the cap: the
        flock around eviction serializes the scan-and-delete."""
        import multiprocessing

        root = tmp_path / "shared"
        procs = [multiprocessing.Process(
            target=_hammer_cache, args=(str(root), seed, 60))
            for seed in (1, 2)]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=120)
        assert [p.exitcode for p in procs] == [0, 0]
        cache = TableCache(root, max_bytes=64 * 1024)
        # Post-quiescence the directory respects the cap exactly.
        cache.evict()
        assert cache.total_bytes() <= cache.max_bytes

    def test_lock_file_is_invisible_to_entries(self, tmp_path):
        cache = TableCache(tmp_path / "c")
        with cache._lock():
            pass
        assert list(cache.entries()) == []
        assert (cache.root / ".lock").is_file()
