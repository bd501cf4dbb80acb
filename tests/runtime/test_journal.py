"""Tests for the crash-safe search journal."""

import json

import pytest

from repro.core.exceptions import JournalError
from repro.core.strategy import SearchResult, Strategy
from repro.runtime import JOURNAL_VERSION, SearchJournal

FP = {"version": 1, "tables_digest": "abc", "method": "ours", "seed": 0}


def make_result() -> SearchResult:
    return SearchResult(
        strategy=Strategy({"n0": (1, 2, 1, 1, 2), "n1": (4, 1, 1, 1, 1)}),
        cost=1.234567890123456e12,
        elapsed=0.25,
        method="pase-dp",
        stats={"dp_table_bytes": 1024.0, "table_build_seconds": 0.125},
    )


class TestLifecycle:
    def test_fresh_open_writes_snapshot(self, tmp_path):
        j = SearchJournal(tmp_path / "j")
        assert j.open(FP, resume=False) is False
        state = json.loads(j.path.read_text())
        assert state["version"] == JOURNAL_VERSION
        assert state["fingerprint"]["tables_digest"] == "abc"
        assert state["phases"] == {}

    def test_fresh_open_overwrites_previous_run(self, tmp_path):
        j = SearchJournal(tmp_path / "j")
        j.open(FP, resume=False)
        j.phase_done("tables", digest="abc")
        j2 = SearchJournal(tmp_path / "j")
        j2.open(FP, resume=False)
        assert j2.phase("tables") is None

    def test_resume_roundtrip(self, tmp_path):
        j = SearchJournal(tmp_path / "j")
        j.open(FP, resume=False)
        j.phase_done("tables", digest="abc", degraded=False)
        j.event("cache-quarantine", "1 entry")
        j2 = SearchJournal(tmp_path / "j")
        assert j2.open(FP, resume=True) is True
        assert j2.phase("tables")["done"] is True
        assert j2.events == [{"kind": "cache-quarantine", "detail": "1 entry"}]

    def test_resume_without_journal_fails(self, tmp_path):
        with pytest.raises(JournalError, match="no journal"):
            SearchJournal(tmp_path / "missing").open(FP, resume=True)

    def test_resume_fingerprint_mismatch_fails(self, tmp_path):
        j = SearchJournal(tmp_path / "j")
        j.open(FP, resume=False)
        other = dict(FP, seed=1)
        with pytest.raises(JournalError, match="different problem"):
            SearchJournal(tmp_path / "j").open(other, resume=True)

    def test_resume_corrupt_json_fails(self, tmp_path):
        j = SearchJournal(tmp_path / "j")
        j.open(FP, resume=False)
        j.path.write_text("{ torn mid-write")
        with pytest.raises(JournalError, match="unreadable"):
            SearchJournal(tmp_path / "j").open(FP, resume=True)

    def test_resume_unsupported_version_fails(self, tmp_path):
        j = SearchJournal(tmp_path / "j")
        j.open(FP, resume=False)
        state = json.loads(j.path.read_text())
        state["version"] = JOURNAL_VERSION + 99
        j.path.write_text(json.dumps(state))
        with pytest.raises(JournalError, match="version"):
            SearchJournal(tmp_path / "j").open(FP, resume=True)

    def test_fingerprint_normalized_tuples_match_lists(self, tmp_path):
        # run_fingerprint carries order as a tuple in memory but JSON
        # stores lists; they must compare equal across the round trip.
        fp = dict(FP, order=("a", "b"))
        j = SearchJournal(tmp_path / "j")
        j.open(fp, resume=False)
        assert SearchJournal(tmp_path / "j").open(
            dict(FP, order=["a", "b"]), resume=True) is True

    def test_flush_is_atomic_no_temp_left_behind(self, tmp_path):
        j = SearchJournal(tmp_path / "j")
        j.open(FP, resume=False)
        for _ in range(3):
            j.flush()
        assert [p.name for p in j.root.iterdir()] == ["journal.json"]


class TestResultReplay:
    def test_record_then_load_is_bit_identical(self, tmp_path):
        j = SearchJournal(tmp_path / "j")
        j.open(FP, resume=False)
        res = make_result()
        j.record_result(res)
        j2 = SearchJournal(tmp_path / "j")
        j2.open(FP, resume=True)
        loaded = j2.load_result()
        assert loaded is not None
        assert loaded.cost == res.cost  # exact, not approx
        assert loaded.elapsed == res.elapsed
        assert loaded.method == res.method
        assert loaded.stats == res.stats
        assert loaded.strategy.assignment == res.strategy.assignment

    def test_scalar_result_journals_pre_frontier_schema(self, tmp_path):
        """A scalar run's journal record has no ``frontier`` key — byte
        compatibility with journals written before the frontier existed."""
        j = SearchJournal(tmp_path / "j")
        j.open(FP, resume=False)
        j.record_result(make_result())
        state = json.loads(j.path.read_text())
        assert "frontier" not in state["phases"]["search"]

    def test_frontier_roundtrip_bit_identical(self, tmp_path):
        from repro.core.strategy import FrontierPoint
        base = make_result()
        pts = (
            FrontierPoint(cost=base.cost, peak_bytes=3.25e9,
                          strategy=base.strategy),
            FrontierPoint(cost=base.cost * 1.5, peak_bytes=1.125e9,
                          strategy=Strategy({"n0": (1, 1, 1, 1, 1),
                                             "n1": (2, 2, 1, 1, 1)})),
        )
        res = SearchResult(strategy=base.strategy, cost=base.cost,
                           elapsed=base.elapsed, method="pase-dp+frontier",
                           stats=base.stats, frontier=pts)
        j = SearchJournal(tmp_path / "j")
        j.open(FP, resume=False)
        j.record_result(res)
        j2 = SearchJournal(tmp_path / "j")
        j2.open(FP, resume=True)
        loaded = j2.load_result()
        assert loaded is not None
        assert len(loaded.frontier) == 2
        for got, want in zip(loaded.frontier, pts):
            assert got.cost == want.cost  # exact, not approx
            assert got.peak_bytes == want.peak_bytes
            assert got.strategy.assignment == want.strategy.assignment

    def test_load_result_none_before_search_finishes(self, tmp_path):
        j = SearchJournal(tmp_path / "j")
        j.open(FP, resume=False)
        j.phase_done("tables", digest="abc")
        assert j.load_result() is None
