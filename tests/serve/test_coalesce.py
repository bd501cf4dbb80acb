"""Result cache + quarantine: LRU, persistence, crash tolerance."""

import json

from repro.serve.coalesce import CACHE_VERSION, Quarantine, ResultCache


class TestResultCache:
    def test_memory_only_roundtrip(self):
        cache = ResultCache(None)
        assert cache.get("fp") is None
        cache.put("fp", {"cost": 1.0})
        assert cache.get("fp") == {"cost": 1.0}
        cache.flush()  # no-op, must not raise

    def test_lru_eviction(self):
        cache = ResultCache(None, max_entries=2)
        cache.put("a", {"v": 1})
        cache.put("b", {"v": 2})
        assert cache.get("a") == {"v": 1}  # refresh a
        cache.put("c", {"v": 3})           # evicts b
        assert cache.get("b") is None
        assert cache.get("a") and cache.get("c")

    def test_persists_and_reloads(self, tmp_path):
        path = tmp_path / "results.json"
        cache = ResultCache(path)
        cache.put("fp1", {"cost": 1.0})
        cache.flush()
        reloaded = ResultCache(path)
        assert reloaded.get("fp1") == {"cost": 1.0}
        assert len(reloaded) == 1

    def test_tolerates_corrupt_and_foreign_files(self, tmp_path):
        path = tmp_path / "results.json"
        path.write_text("{not json", encoding="utf-8")
        assert len(ResultCache(path)) == 0
        path.write_text(json.dumps({"version": CACHE_VERSION + 1,
                                    "results": {"a": {}}}), encoding="utf-8")
        assert len(ResultCache(path)) == 0
        assert len(ResultCache(tmp_path / "missing.json")) == 0

    def test_reload_respects_max_entries(self, tmp_path):
        path = tmp_path / "results.json"
        cache = ResultCache(path)
        for i in range(5):
            cache.put(f"fp{i}", {"v": i})
        cache.flush()
        assert len(ResultCache(path, max_entries=2)) == 2


class TestQuarantine:
    def test_add_get_remove(self, tmp_path):
        q = Quarantine(tmp_path / "quarantine.json")
        entry = q.add("fp", attempts=3, kind="crash", detail="boom",
                      label="alexnet/p8")
        assert entry["attempts"] == 3
        assert q.get("fp")["kind"] == "crash"
        assert q.get("other") is None

    def test_flushed_immediately_and_reloaded(self, tmp_path):
        path = tmp_path / "quarantine.json"
        q = Quarantine(path)
        q.add("fp", attempts=2, kind="deadline", detail="slow")
        # No explicit flush: add() must have already persisted (the
        # whole point is surviving the crash it just witnessed).
        reloaded = Quarantine(path)
        assert reloaded.get("fp")["kind"] == "deadline"
        assert reloaded.snapshot() == q.snapshot()

    def test_tolerates_corrupt_file(self, tmp_path):
        path = tmp_path / "quarantine.json"
        path.write_text("garbage", encoding="utf-8")
        assert len(Quarantine(path)) == 0
