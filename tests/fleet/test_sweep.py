"""Fleet chaos suite: real process faults, real kills, identical merges.

Chaos here is not monkeypatched: workers genuinely ``os._exit`` mid-task,
poison tasks genuinely fail every attempt, wedged workers genuinely stop
heartbeating and get SIGKILLed, and the supervisor itself is ``kill -9``ed
from outside.  The property every test pins is the fleet contract: the
sweep always drains, quarantines are recorded instead of fatal, and the
merged ``results.jsonl`` is byte-identical no matter how many times the
fleet died on the way there.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core.exceptions import JournalError
from repro.fleet import FleetSupervisor, SweepSpec
from repro.fleet.worker import task_dir

FAST = dict(backoff_base=0.01, backoff_cap=0.1)


def sweep_spec(**overrides):
    base = dict(models=["alexnet"], ps=[2, 4], methods=["ours"],
                modes=["pow2"])
    base.update(overrides)
    return SweepSpec.from_dict(base)


def run_fleet(spec, fleet_dir, **kwargs):
    opts = dict(FAST)
    opts.update(kwargs)
    resume = opts.pop("resume", False)
    return FleetSupervisor(spec, fleet_dir, **opts).run(resume=resume)


def read_lines(fleet_dir):
    return (Path(fleet_dir) / "results.jsonl").read_text().splitlines()


class TestCleanSweep:
    def test_drains_and_merges_in_spec_order(self, tmp_path):
        spec = sweep_spec()
        report = run_fleet(spec, tmp_path / "fleet", workers=2)
        assert report.clean
        assert report.succeeded == report.tasks_total == 2
        records = [json.loads(line)
                   for line in read_lines(tmp_path / "fleet")]
        assert [r["task_id"] for r in records] == \
            [t.task_id for t in spec.expand()]
        assert all(r["cost"] > 0 for r in records)
        summary = json.loads(
            (tmp_path / "fleet" / "summary.json").read_text())
        assert summary["succeeded"] == 2 and not summary["resumed"]

    def test_merge_is_identical_across_worker_widths(self, tmp_path):
        spec = sweep_spec(seeds=[0, 1])
        run_fleet(spec, tmp_path / "narrow", workers=1)
        run_fleet(spec, tmp_path / "wide", workers=4)
        assert (tmp_path / "narrow" / "results.jsonl").read_bytes() == \
            (tmp_path / "wide" / "results.jsonl").read_bytes()

    def test_frontier_tasks_merge_their_pareto_sets(self, tmp_path):
        spec = sweep_spec(ps=[2], objectives=["cost", "frontier"])
        report = run_fleet(spec, tmp_path / "fleet", workers=2)
        assert report.clean and report.succeeded == 2
        records = [json.loads(line)
                   for line in read_lines(tmp_path / "fleet")]
        by_obj = {r["task"].get("objective", "cost"): r for r in records}
        # Scalar records keep the exact pre-frontier schema.
        assert "frontier" not in by_obj["cost"]
        pts = by_obj["frontier"]["frontier"]
        assert len(pts) >= 1
        assert pts[0]["cost"] == by_obj["frontier"]["cost"]
        assert pts[0]["cost"] == by_obj["cost"]["cost"]  # bit-identical
        for a, b in zip(pts, pts[1:]):
            assert a["cost"] <= b["cost"]
            assert a["peak_bytes"] > b["peak_bytes"]
        assert all(isinstance(p["strategy"], dict) for p in pts)

    def test_resume_rejects_an_edited_spec(self, tmp_path):
        run_fleet(sweep_spec(), tmp_path / "fleet", workers=2)
        with pytest.raises(JournalError, match="fingerprint"):
            run_fleet(sweep_spec(seeds=[7]), tmp_path / "fleet",
                      workers=2, resume=True)


class TestWorkerChaos:
    def test_transient_worker_death_is_retried(self, tmp_path):
        spec = sweep_spec(ps=[2], tasks=[{
            "model": "alexnet", "p": 4,
            "chaos": {"kind": "exit", "attempts": 1}}])
        report = run_fleet(spec, tmp_path / "fleet", workers=2)
        assert report.clean
        assert report.worker_crashes == 1
        assert report.retries == 1
        assert len(read_lines(tmp_path / "fleet")) == 2

    def test_poison_task_is_quarantined_not_fatal(self, tmp_path):
        spec = sweep_spec(ps=[2], tasks=[{
            "model": "alexnet", "p": 4,
            "chaos": {"kind": "raise", "message": "poisoned"}}])
        report = run_fleet(spec, tmp_path / "fleet", workers=2,
                           max_attempts=2)
        assert not report.clean
        assert report.succeeded == 1 and report.quarantined == 1
        assert report.retries == 1  # first failure retried, second sealed
        [q] = report.quarantined_tasks
        assert "poisoned" in q["last_error"]["detail"]
        # The healthy task still merged; the poison one is excluded.
        records = [json.loads(line)
                   for line in read_lines(tmp_path / "fleet")]
        assert len(records) == 1 and records[0]["task"]["p"] == 2
        summary = json.loads(
            (tmp_path / "fleet" / "summary.json").read_text())
        assert summary["quarantined"] == 1
        assert summary["quarantined_tasks"][0]["task_id"] == q["task_id"]

    def test_stale_error_report_never_relabels_a_crash(self, tmp_path):
        """An error.json stamped by another attempt is not this
        attempt's report: a worker that then dies is a crash."""
        spec = sweep_spec(ps=[2], tasks=[{
            "model": "alexnet", "p": 4,
            "chaos": {"kind": "exit", "code": 1}}])
        doomed = spec.expand()[-1]
        tdir = task_dir(tmp_path / "fleet", doomed.task_id)
        tdir.mkdir(parents=True)
        (tdir / "error.json").write_text(json.dumps({
            "version": 1, "task_id": doomed.task_id, "attempt": 99,
            "kind": "resource", "type": "SearchResourceError",
            "detail": "stale report from an old attempt"}))
        report = run_fleet(spec, tmp_path / "fleet", workers=2,
                           max_attempts=2)
        [q] = report.quarantined_tasks
        assert q["last_error"]["kind"] == "crash"
        assert report.worker_crashes == 2

    def test_wedged_worker_is_sigkilled_and_reassigned(self, tmp_path):
        spec = sweep_spec(ps=[2], tasks=[{
            "model": "alexnet", "p": 4,
            "chaos": {"kind": "hang", "attempts": 1, "seconds": 60}}])
        report = run_fleet(spec, tmp_path / "fleet", workers=2,
                           straggler_after=1.0)
        assert report.clean
        assert report.stragglers_killed == 1
        assert len(read_lines(tmp_path / "fleet")) == 2


def cli_sweep(spec_path, fleet_dir, *extra):
    return [sys.executable, "-m", "repro.cli", "sweep",
            "--spec", str(spec_path), "--fleet-dir", str(fleet_dir),
            "--workers", "4", "--max-retries", "1",
            "--straggler-after", "30", *extra]


def wait_for_done(fleet_dir, at_least, timeout=60.0):
    """Block until the manifest records ``at_least`` done tasks."""
    deadline = time.monotonic() + timeout
    manifest = Path(fleet_dir) / "manifest.json"
    while time.monotonic() < deadline:
        try:
            state = json.loads(manifest.read_text())
        except (OSError, json.JSONDecodeError):
            state = None
        if state is not None:
            done = sum(1 for rec in state["tasks"].values()
                       if rec["state"] == "done")
            if done >= at_least:
                return done
        time.sleep(0.05)
    raise AssertionError(
        f"fleet never reached {at_least} done tasks in {timeout}s")


class TestSupervisorChaos:
    """The acceptance sweep: >= 50 tasks surviving every fault at once.

    One worker dies with ``os._exit`` (retried), one poison task fails
    every attempt (quarantined, exit code 7), and the supervisor itself
    is SIGKILLed mid-sweep; ``--resume`` must finish the job with a
    merged results file byte-identical to the uninterrupted run's.
    """

    @pytest.fixture(scope="class")
    def big_spec(self, tmp_path_factory):
        spec = sweep_spec(
            ps=[2, 3, 4, 5],
            seeds=list(range(12)),
            tasks=[
                {"model": "alexnet", "p": 6,
                 "chaos": {"kind": "exit", "attempts": 1}},
                {"model": "alexnet", "p": 7,
                 "chaos": {"kind": "raise", "message": "poison"}},
            ])
        assert len(spec.expand()) == 50
        path = tmp_path_factory.mktemp("spec") / "spec.json"
        path.write_text(json.dumps(spec.to_dict()))
        return path

    @pytest.fixture(scope="class")
    def uninterrupted(self, big_spec, tmp_path_factory):
        fleet = tmp_path_factory.mktemp("fresh") / "fleet"
        proc = subprocess.run(cli_sweep(big_spec, fleet),
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 7, proc.stderr  # the poison task
        return fleet

    def test_kill9_resume_is_bit_identical(self, big_spec, uninterrupted,
                                           tmp_path):
        fleet = tmp_path / "fleet"
        proc = subprocess.Popen(cli_sweep(big_spec, fleet),
                                stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL)
        try:
            wait_for_done(fleet, at_least=5)
            os.kill(proc.pid, signal.SIGKILL)
            assert proc.wait(timeout=30) == -signal.SIGKILL
        finally:
            if proc.poll() is None:
                proc.kill()
        # kill -9 left no merge and (likely) running slots behind.
        assert not (fleet / "results.jsonl").exists()

        resumed = subprocess.run(
            cli_sweep(big_spec, fleet, "--resume"),
            capture_output=True, text=True, timeout=300)
        assert resumed.returncode == 7, resumed.stderr
        assert "resumed mid-sweep" in resumed.stdout

        assert (fleet / "results.jsonl").read_bytes() == \
            (uninterrupted / "results.jsonl").read_bytes()
        summary = json.loads((fleet / "summary.json").read_text())
        assert summary["succeeded"] == 49
        assert summary["quarantined"] == 1
        assert summary["resumed"] is True

    def test_sigint_exits_6_and_resumes_clean(self, big_spec,
                                              uninterrupted, tmp_path):
        fleet = tmp_path / "fleet"
        proc = subprocess.Popen(cli_sweep(big_spec, fleet),
                                stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL)
        try:
            wait_for_done(fleet, at_least=3)
            proc.send_signal(signal.SIGINT)
            assert proc.wait(timeout=60) == 6
        finally:
            if proc.poll() is None:
                proc.kill()

        resumed = subprocess.run(
            cli_sweep(big_spec, fleet, "--resume"),
            capture_output=True, text=True, timeout=300)
        assert resumed.returncode == 7, resumed.stderr
        assert (fleet / "results.jsonl").read_bytes() == \
            (uninterrupted / "results.jsonl").read_bytes()
