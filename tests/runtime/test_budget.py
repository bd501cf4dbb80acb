"""Tests for RunBudget / Cancellation / make_checkpoint semantics."""

import pytest

from repro.core.exceptions import DeadlineExceededError, RunInterrupted
from repro.runtime import Cancellation, RunBudget, make_checkpoint


class TestRunBudget:
    def test_unbounded_by_default(self):
        b = RunBudget().start()
        assert b.remaining() == float("inf")
        assert not b.expired
        b.check("anywhere")  # never raises

    def test_zero_deadline_is_immediately_expired(self):
        b = RunBudget(deadline=0.0).start()
        assert b.expired
        with pytest.raises(DeadlineExceededError) as exc:
            b.check("tables[3/10]")
        assert exc.value.deadline_seconds == 0.0
        assert exc.value.elapsed_seconds >= 0.0
        assert exc.value.where == "tables[3/10]"
        assert "tables[3/10]" in str(exc.value)

    def test_generous_deadline_does_not_trip(self):
        b = RunBudget(deadline=3600.0).start()
        assert not b.expired
        assert 0.0 < b.remaining() <= 3600.0
        b.check()

    def test_start_is_idempotent(self):
        b = RunBudget(deadline=10.0).start()
        anchor = b.started
        assert b.start() is b
        assert b.started == anchor

    def test_check_autostarts(self):
        b = RunBudget(deadline=10.0)
        assert b.started is None
        b.check()
        assert b.started is not None

    def test_elapsed_before_start_is_zero(self):
        assert RunBudget().elapsed() == 0.0

    def test_negative_deadline_rejected(self):
        with pytest.raises(ValueError):
            RunBudget(deadline=-1.0)

    def test_nan_deadline_rejected(self):
        """NaN fails every comparison, so a ``< 0`` check lets it through
        as a deadline that never expires."""
        with pytest.raises(ValueError, match="must be >= 0"):
            RunBudget(deadline=float("nan"))

    def test_nonpositive_memory_budget_rejected(self):
        with pytest.raises(ValueError):
            RunBudget(memory_budget=0)


class TestCancellation:
    def test_clean_token_passes(self):
        c = Cancellation()
        assert not c.requested
        assert c.reason is None
        c.check("dp[5]")

    def test_set_then_check_raises(self):
        c = Cancellation()
        c.set("SIGINT")
        assert c.requested and c.reason == "SIGINT"
        with pytest.raises(RunInterrupted) as exc:
            c.check("dp[5/94]")
        assert exc.value.signal_name == "SIGINT"
        assert exc.value.where == "dp[5/94]"

    def test_first_reason_sticks(self):
        c = Cancellation()
        c.set("SIGINT")
        c.set("SIGTERM")
        assert c.reason == "SIGINT"


class TestMakeCheckpoint:
    def test_noop_without_collaborators(self):
        make_checkpoint()(phase="dp", step=1, total=2)

    def test_cancellation_wins_over_deadline(self):
        # An interrupted run must report *interrupted*, not whichever
        # deadline it also happened to cross while unwinding.
        budget = RunBudget(deadline=0.0).start()
        cancel = Cancellation()
        cancel.set("SIGINT")
        cp = make_checkpoint(budget, cancel)
        with pytest.raises(RunInterrupted):
            cp(phase="tables")

    def test_deadline_checked_when_not_cancelled(self):
        cp = make_checkpoint(RunBudget(deadline=0.0).start(), Cancellation())
        with pytest.raises(DeadlineExceededError):
            cp(phase="dp", step=3, total=9)

    def test_progress_reaches_journal(self, tmp_path):
        from repro.runtime import SearchJournal

        journal = SearchJournal(tmp_path / "j")
        journal.open({"k": 1}, resume=False)
        cp = make_checkpoint(None, None, journal)
        cp(phase="dp", step=7, total=9)
        assert journal.state["progress"] == {"phase": "dp", "step": 7,
                                             "total": 9}
