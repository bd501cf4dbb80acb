"""Unit tests of the benchmark harness itself (no server, no searches).

    python3 -m pytest benchmarks/e2e/tests -q
"""

import json
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402
from common import (Oracle, percentile, tail_percentile,  # noqa: E402
                    verdict)
from serve_wl import closed_docs, open_loop, open_schedule  # noqa: E402
from workloads import (DUP_GAP, FRONTIER, WORKLOADS,  # noqa: E402
                       frontier_key, required_keys)


@pytest.mark.parametrize("n, q", [(1000, 99.0), (999, 95.0), (300, 95.0),
                                  (100, 90.0), (20, 50.0), (19, None),
                                  (10000, 99.9)])
def test_highest_percentile_with_ten_samples_beyond(n, q):
    assert tail_percentile(n) == q
    if q is not None:
        values = list(range(1, n + 1))
        assert sum(v > percentile(values, q) for v in values) >= 10


def test_percentile_is_nearest_rank():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert percentile(values, 50.0) == 3.0
    assert percentile(values, 90.0) == 5.0
    assert percentile(values, 20.0) == 1.0


def test_schedule_is_a_function_of_the_seed():
    first = json.dumps(open_schedule(7, 20.0, 30.0))
    assert json.dumps(open_schedule(7, 20.0, 30.0)) == first
    assert json.dumps(open_schedule(8, 20.0, 30.0)) != first
    take = [next(docs) for docs in [closed_docs(7)] for _ in range(50)]
    assert [next(docs) for docs in [closed_docs(7)] for _ in range(50)] \
        == take


@pytest.mark.parametrize("seed", [3, 4])
def test_schedule_mix(seed):
    schedule = open_schedule(seed, 20.0, 60.0)
    times = [r["t"] for r in schedule]
    assert times == sorted(times) and times[-1] < 60.0 + DUP_GAP
    hits = [r for r in schedule if r["kind"] == "hit"]
    assert len(hits) == 840          # 70% of 20 req/s for 60 s
    assert all("seed" not in r["doc"] for r in hits)
    misses = [r for r in schedule if r["kind"] == "miss"]
    seeds = [r["doc"]["seed"] for r in misses]
    assert len(set(seeds)) == 360
    assert len(seeds) - len(set(seeds)) == 36   # 10% of misses, twice
    by_seed = {}
    for r in misses:
        by_seed.setdefault(r["doc"]["seed"], []).append(r["t"])
    assert all(ts[1] - ts[0] == pytest.approx(DUP_GAP)
               for ts in by_seed.values() if len(ts) == 2)
    closed = {d["seed"] for docs in [closed_docs(3)] for d in
              (next(docs) for _ in range(500))}
    assert len(closed) == 500 and not closed & set(seeds)


def test_latency_runs_from_the_scheduled_send_time():
    def slow(doc):
        time.sleep(0.05)
        return 200, doc

    schedule = [{"t": t, "doc": i} for i, t in enumerate((0.0, 0.01, 0.02))]
    results = open_loop(schedule, [slow])
    for req, rec in zip(schedule, results):
        assert rec["due"] == req["t"]
        assert rec["due"] <= rec["sent"] <= rec["done"]
        assert rec["body"] == req["doc"]
    # One thread: the second and third requests wait for the first.
    assert results[1]["sent"] - results[1]["due"] > 0.03
    assert results[2]["done"] - results[2]["due"] > 0.12


def test_open_loop_spreads_over_threads():
    def fast(doc):
        return 200, doc

    schedule = [{"t": 0.0, "doc": i} for i in range(20)]
    results = open_loop(schedule, [fast, fast])
    assert [r["body"] for r in results] == list(range(20))


@pytest.mark.parametrize("before, after, better, expect", [
    ([100, 101, 99, 100], [102, 101, 103, 102], "lower", "ok"),
    ([100, 101, 99, 100], [120, 121, 119, 120], "lower", "regressed"),
    ([100, 101, 99, 100], [80, 81, 79, 80], "higher", "regressed"),
    ([100, 101, 99, 100], [120, 121, 119, 120], "higher", "ok"),
    ([100, 140, 70, 100], [100, 101, 99, 100], "lower", "unresolved"),
    ([100, 140, 70, 100], [50, 55, 45, 52], "lower", "ok"),
])
def test_verdicts(before, after, better, expect):
    assert verdict(before, after, better, 0.1) == expect


def _runs(path, values):
    path.write_text(json.dumps({"runs": [
        {"trace": 0, "smoke": False, "workloads": {"search-p16": {
            "metrics": {"latency_ms": {"value": v, "unit": "ms"}}}}}
        for v in values]}))
    return str(path)


def test_check_command(tmp_path, capsys):
    bench = {"end_to_end": [{"name": "latency_ms", "unit": "ms",
                             "better": "lower", "bound": 0.1}]}
    a = _runs(tmp_path / "a.json", [100, 101, 99])
    assert run.check(bench, a, _runs(tmp_path / "b.json", [100, 102, 99])) \
        == 0
    assert "ok" in capsys.readouterr().out
    assert run.check(bench, a, _runs(tmp_path / "c.json", [130, 131, 129])) \
        == 1
    assert "regressed" in capsys.readouterr().out
    assert run.check(bench, a, _runs(tmp_path / "d.json", [100, 100])) == 1
    assert "too few runs" in capsys.readouterr().out


def test_expected_covers_every_workload_problem():
    oracle = Oracle()
    scalar, frontier = required_keys()
    assert scalar <= set(oracle.scalar)
    assert frontier <= set(oracle.frontier)
    assert all(isinstance(v, float) for v in oracle.scalar.values())
    for pin in oracle.frontier.values():
        assert isinstance(pin["cost"], float) and pin["points"] >= 1
    assert {frontier_key(*p) for p in FRONTIER} == frontier
    assert set(WORKLOADS) == {w["name"] for w in
                              json.loads(run.BENCHMARK.read_text())
                              ["workloads"]}


def test_oracle_rejects_dominated_and_wrong_frontiers():
    oracle = Oracle()
    key = frontier_key("rnnlm", 64, "frontier")
    pin = oracle.frontier[key]
    points = [(pin["cost"] + i, 100.0 - i) for i in range(pin["points"])]
    assert oracle.frontier_points(key, points)
    assert not oracle.failures
    assert not oracle.frontier_points(key, points[:-1] + [(points[0][0] + 1,
                                                           200.0)])
    assert any("dominated" in f for f in oracle.failures)
    assert not oracle.cost("rnnlm/4/off", oracle.scalar["rnnlm/4/off"] * 2)
