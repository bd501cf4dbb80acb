"""Engine chaos suite: coalescing, crash retry, quarantine, degradation.

Faults here are real process faults, fleet-style: chaos-hooked workers
genuinely ``os._exit`` mid-search, poison problems genuinely burn every
attempt, and the assertions pin the serve contract — N identical
concurrent requests cost one search (and one *re-dispatch* when that
search's worker dies), quarantine answers every waiter with the same
structured 503, and answers are byte-identical however they were
obtained.
"""

import json
import threading
import time

import pytest

from repro.fleet.pool import WorkerPool
from repro.fleet.worker import task_dir
from repro.obs.metrics import Metrics
from repro.serve.engine import SearchEngine
from repro.serve.wire import ServeError, validate_request


def make_engine(tmp_path, metrics=None, **kwargs):
    opts = dict(workers=2, max_attempts=3)
    opts.update(kwargs)
    return SearchEngine(tmp_path / "state",
                        metrics=metrics if metrics is not None else Metrics(),
                        **opts)


def request(doc):
    return validate_request(doc, allow_chaos=True)


def run_many(engine, doc, n):
    """Fire ``n`` identical requests concurrently; return outcomes."""
    results = [None] * n
    errors = [None] * n

    def one(i):
        try:
            results[i] = engine.execute(request(doc))
        except ServeError as err:
            errors[i] = err

    threads = [threading.Thread(target=one, args=(i,)) for i in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not any(t.is_alive() for t in threads)
    return results, errors


class TestHappyPath:
    def test_search_then_cache_hit(self, tmp_path):
        metrics = Metrics()
        with make_engine(tmp_path, metrics) as engine:
            doc = {"model": "alexnet", "p": 4}
            first = engine.execute(request(doc))
            assert not first.cached and first.attempts == 1
            assert first.record["cost"] > 0
            again = engine.execute(request(doc))
            assert again.cached and again.record == first.record
        assert metrics.counter("serve_searches_total").value == 1
        assert metrics.counter("serve_result_cache_hits_total").value == 1

    def test_memory_budget_clamp_changes_fingerprint_key(self, tmp_path):
        with make_engine(tmp_path, memory_budget=1 << 28) as engine:
            huge = engine.normalize(request(
                {"model": "alexnet", "p": 4,
                 "memory_budget": 1 << 40}).task)
            capped = engine.normalize(request(
                {"model": "alexnet", "p": 4,
                 "memory_budget": 1 << 28}).task)
            assert huge.memory_budget == 1 << 28
            assert engine.fingerprint_of(huge) == \
                engine.fingerprint_of(capped)

    def test_restart_serves_identical_record_from_state(self, tmp_path):
        doc = {"model": "alexnet", "p": 4}
        with make_engine(tmp_path) as engine:
            first = engine.execute(request(doc))
        with make_engine(tmp_path) as engine:
            again = engine.execute(request(doc))
            assert again.cached
            assert json.dumps(again.record, sort_keys=True) == \
                json.dumps(first.record, sort_keys=True)


class TestCoalescing:
    def test_identical_requests_share_one_search(self, tmp_path):
        metrics = Metrics()
        with make_engine(tmp_path, metrics) as engine:
            doc = {"model": "alexnet", "p": 8, "seed": 5}
            results, errors = run_many(engine, doc, 4)
            assert errors == [None] * 4
            records = {json.dumps(r.record, sort_keys=True)
                       for r in results}
            assert len(records) == 1
            assert sum(1 for r in results if r.coalesced) == 3
        assert metrics.counter("serve_searches_total").value == 1
        assert metrics.counter("serve_coalesce_hits_total").value == 3

    def test_coalesced_requests_survive_worker_crash(self, tmp_path):
        """The crash satellite: a worker ``os._exit``s mid-search under
        N coalesced waiters → exactly one re-dispatch (not N), and every
        waiter receives the same successful record."""
        metrics = Metrics()
        with make_engine(tmp_path, metrics) as engine:
            doc = {"model": "alexnet", "p": 4, "seed": 11,
                   "chaos": {"kind": "exit", "attempts": 1}}
            results, errors = run_many(engine, doc, 4)
            assert errors == [None] * 4
            # One flight, killed once, retried once: attempts == 2.
            assert {r.attempts for r in results} == {2}
            records = {json.dumps(r.record, sort_keys=True)
                       for r in results}
            assert len(records) == 1
        assert metrics.counter("serve_retries_total").value == 1
        assert metrics.counter("serve_worker_crashes_total").value == 1
        assert metrics.counter("serve_searches_total").value == 1

    def test_crashed_record_identical_to_clean_record(self, tmp_path):
        clean = make_engine(tmp_path / "a")
        crashy = make_engine(tmp_path / "b")
        try:
            doc = {"model": "alexnet", "p": 4, "seed": 2}
            want = clean.execute(request(doc)).record
            got = crashy.execute(request(
                {**doc, "chaos": {"kind": "exit", "attempts": 1}})).record
            # The chaos hook changes the task id but not the answer:
            # compare everything below the task envelope.
            assert got["cost"] == want["cost"]
            assert got["strategy"] == want["strategy"]
        finally:
            clean.close()
            crashy.close()


class TestQuarantine:
    def test_poison_problem_quarantined_for_all_waiters(self, tmp_path):
        metrics = Metrics()
        with make_engine(tmp_path, metrics, max_attempts=2) as engine:
            doc = {"model": "alexnet", "p": 4, "seed": 13,
                   "chaos": {"kind": "exit"}}
            results, errors = run_many(engine, doc, 3)
            assert results == [None] * 3
            for err in errors:
                assert err.status == 503
                assert err.kind == "quarantined"
                assert err.detail["attempts"] == 2
            # Subsequent request refused straight from the store.
            with pytest.raises(ServeError) as exc:
                engine.execute(request(doc))
            assert exc.value.kind == "quarantined"
        assert metrics.counter("serve_quarantined_total").value == 1

    def test_quarantine_survives_restart(self, tmp_path):
        doc = {"model": "alexnet", "p": 4, "seed": 13,
               "chaos": {"kind": "exit"}}
        with make_engine(tmp_path, max_attempts=2) as engine:
            with pytest.raises(ServeError):
                engine.execute(request(doc))
        with make_engine(tmp_path, max_attempts=2) as engine:
            with pytest.raises(ServeError) as exc:
                engine.execute(request(doc))
            assert exc.value.kind == "quarantined"

    def test_degrade_answers_quarantined_problem(self, tmp_path):
        with make_engine(tmp_path, max_attempts=2) as engine:
            doc = {"model": "alexnet", "p": 4, "seed": 13,
                   "chaos": {"kind": "exit"}}
            with pytest.raises(ServeError):
                engine.execute(request(doc))
            result = engine.execute(request({**doc, "degrade": True}))
            assert result.degraded
            assert result.record["task"]["resilient"] is True
            assert result.record["cost"] > 0

    def test_quarantined_degraded_fallback_gets_503(self, tmp_path):
        """When the degraded task's own fingerprint is quarantined too,
        the second pass refuses with the non-degradable hint."""
        from repro.fleet.spec import SweepTask

        with make_engine(tmp_path) as engine:
            req = request({"model": "alexnet", "p": 4, "seed": 21,
                           "mode": "divisors", "degrade": True})
            degraded = SweepTask(model="alexnet", p=4, seed=21,
                                 resilient=True)
            fps = [engine.fingerprint_of(req.task),
                   engine.fingerprint_of(degraded)]
            for fp in fps:
                engine.quarantine.add(fp, attempts=3, kind="crash",
                                      detail="poison")
            with pytest.raises(ServeError) as exc:
                engine.execute(req)
            assert exc.value.status == 503
            assert exc.value.kind == "quarantined"
            assert "the degraded fallback failed too" in exc.value.message
            assert exc.value.detail["fingerprint"] == fps[1]


class TestDeadline:
    def test_waiter_deadline_maps_to_504(self, tmp_path):
        with make_engine(tmp_path, workers=1) as engine:
            doc = {"model": "alexnet", "p": 4, "seed": 17,
                   "deadline": 0.01,
                   "chaos": {"kind": "hang", "seconds": 30}}
            with pytest.raises(ServeError) as exc:
                engine.execute(request(doc))
            assert exc.value.status == 504
            assert exc.value.kind == "deadline"


class TestStaleEvidence:
    def test_stale_error_report_never_relabels_a_crash(self, tmp_path):
        """An error.json an earlier server life left behind carries the
        same attempt stamp as this life's first attempt; it must not
        relabel that attempt's crash."""
        metrics = Metrics()
        doc = {"model": "alexnet", "p": 4, "seed": 19,
               "chaos": {"kind": "exit", "code": 1}}
        with make_engine(tmp_path, metrics, max_attempts=1) as engine:
            task = engine.normalize(request(doc).task)
            tdir = task_dir(engine.state_dir, task.task_id)
            tdir.mkdir(parents=True)
            (tdir / "error.json").write_text(json.dumps({
                "version": 1, "task_id": task.task_id, "attempt": 1,
                "kind": "resource", "type": "SearchResourceError",
                "detail": "stale report from an earlier server life"}))
            with pytest.raises(ServeError) as exc:
                engine.execute(request(doc))
            assert exc.value.kind == "quarantined"
            [entry] = engine.quarantine_snapshot().values()
            assert entry["kind"] == "crash"
        assert metrics.counter("serve_worker_crashes_total").value == 1


class TestDispatcherFailure:
    def test_dead_dispatcher_answers_every_waiter_with_503(
            self, tmp_path, monkeypatch):
        """A dispatcher killed by an exception (here: fork failing) must
        answer its waiters at once and refuse later misses, not leave
        them parked until their deadlines."""
        def fork_fails(self, *args, **kwargs):
            raise BlockingIOError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(WorkerPool, "submit", fork_fails)
        with make_engine(tmp_path) as engine:
            for seed in (23, 29):
                req = request({"model": "alexnet", "p": 4, "seed": seed,
                               "deadline": 5.0})
                fp = engine.fingerprint_of(req.task)
                t0 = time.monotonic()
                with pytest.raises(ServeError) as exc:
                    engine.execute(req, fp)
                assert time.monotonic() - t0 < 1.0
                assert exc.value.status == 503
                assert "BlockingIOError" in exc.value.detail["error"]
