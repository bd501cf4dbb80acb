"""Serve daemon latency and scaling: cache-hit p50s, fleet throughput.

Boots real `StrategyServer` instances on loopback and measures three
service-level objectives into ``BENCH_serve.json`` (override the path
with ``PASE_BENCH_OUT``):

* **Warm-cache latency** — after one cold search, repeated identical
  requests must come straight from the persistent result cache; the
  HTTP round-trip p50 must stay under ``MAX_CACHED_P50_MS``.
* **Keep-alive latency** — the same cache hits sent over one
  ``http.client`` connection must answer at a p50 of at most
  ``MAX_KEEPALIVE_P50_MS``.  A fresh connection per request (the leg
  above) never sees a response stalled behind the client's delayed ACK;
  a reused connection does.
* **Worker scaling** — a burst of distinct problems (no coalescing, no
  cache hits) through a ``SERVE_WORKERS``-worker server must reach at
  least ``MIN_SPEEDUP``x the single-worker throughput; measured up to
  ``ROUNDS`` times (fresh servers) before failing so one scheduler
  hiccup cannot flake CI.

Needs no pytest-benchmark plugin, so CI can smoke it with the base test
toolchain:

    PYTHONPATH=src python -m pytest benchmarks/bench_serve.py
"""

import http.client
import json
import os
import statistics
import threading
import time
import urllib.request

import pytest

from repro.obs.metrics import Metrics
from repro.serve.admission import AdmissionController
from repro.serve.engine import SearchEngine
from repro.serve.server import StrategyServer
from _config import FULL

#: Worker count for the parallel measurement (the ISSUE floor is 4).
SERVE_WORKERS = 4

#: Distinct problems per throughput burst (all cache/coalesce misses).
N_TASKS = 48 if FULL else 24

#: Cached responses must answer under this round-trip p50.
MAX_CACHED_P50_MS = 50.0

#: Cached responses on a keep-alive connection must answer within this
#: round-trip p50; a delayed-ACK stall alone costs ~40 ms.
MAX_KEEPALIVE_P50_MS = 10.0

#: The 4-worker server must beat 1 worker by at least this factor.
MIN_SPEEDUP = 2.5

#: Fresh measurement rounds before the speedup assert fails.
ROUNDS = 3

_RESULTS: dict[str, dict[str, float]] = {}


@pytest.fixture(scope="module", autouse=True)
def _write_results():
    yield
    if _RESULTS:
        out = os.environ.get("PASE_BENCH_OUT", "BENCH_serve.json")
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(_RESULTS, fh, indent=2, sort_keys=True)
        print(f"\n# serve latency/scaling written to {out}")


def _start(state_dir, workers):
    metrics = Metrics()
    engine = SearchEngine(state_dir, workers=workers, metrics=metrics)
    server = StrategyServer(
        ("127.0.0.1", 0), engine=engine,
        admission=AdmissionController(max(2 * N_TASKS, 16), workers=workers),
        metrics=metrics)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    return server


def _post(port, doc):
    req = urllib.request.Request(
        f"http://127.0.0.1:{port}/v1/search",
        data=json.dumps(doc).encode())
    with urllib.request.urlopen(req, timeout=120) as resp:
        return resp.status, json.loads(resp.read())


def _burst(port, docs):
    """Fire one request per doc concurrently; return wall seconds."""
    statuses = [None] * len(docs)

    def one(i):
        statuses[i], _ = _post(port, docs[i])

    threads = [threading.Thread(target=one, args=(i,))
               for i in range(len(docs))]
    start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - start
    assert statuses == [200] * len(docs), "benchmark burst must not degrade"
    return wall


def _throughput(tmp_path, label, workers):
    # Short searches (rnnlm/p=8 is a few ms) keep the measurement about
    # the service itself: width-1 pays the full dispatch/reap latency
    # per task, width-N overlaps it across in-flight requests — the same
    # effect that dominates real bursts of mixed-size problems.
    docs = [{"model": "rnnlm", "p": 8, "seed": s} for s in range(N_TASKS)]
    warmup = [{"model": "rnnlm", "p": 8, "seed": 10_000 + s}
              for s in range(workers)]
    server = _start(tmp_path / label, workers)
    try:
        # One distinct problem per worker first, so process spawn and
        # graph warm-up are paid outside the timed window.
        _burst(server.server_port, warmup)
        wall = _burst(server.server_port, docs)
    finally:
        server.close()
    per_minute = 60.0 * N_TASKS / wall
    _RESULTS[label] = {
        "tasks": N_TASKS,
        "workers": workers,
        "wall_seconds": round(wall, 4),
        "searches_per_minute": round(per_minute, 2),
    }
    return per_minute


def _latency_row(samples, max_p50_ms):
    """p50 of round-trip milliseconds, and the row recording it."""
    p50 = statistics.median(samples)
    return p50, {
        "samples": len(samples),
        "p50_ms": round(p50, 3),
        "p95_ms": round(sorted(samples)[int(0.95 * len(samples))], 3),
        "max_p50_ms": max_p50_ms,
    }


def test_warm_cache_p50(tmp_path):
    doc = {"model": "alexnet", "p": 8}
    server = _start(tmp_path / "cache", workers=2)
    try:
        port = server.server_port
        _, cold = _post(port, doc)
        assert not cold["served"]["cached"]
        samples = []
        for _ in range(50):
            start = time.perf_counter()
            _, warm = _post(port, doc)
            samples.append(1e3 * (time.perf_counter() - start))
            assert warm["served"]["cached"]
            assert warm["record"] == cold["record"]
    finally:
        server.close()
    p50, _RESULTS["warm_cache"] = _latency_row(samples, MAX_CACHED_P50_MS)
    assert p50 < MAX_CACHED_P50_MS, \
        (f"warm-cache p50 {p50:.1f}ms over the {MAX_CACHED_P50_MS}ms "
         f"budget — cached responses are doing work")


def test_keepalive_cache_p50(tmp_path):
    doc = {"model": "alexnet", "p": 8}
    body = json.dumps(doc).encode()
    server = _start(tmp_path / "keepalive", workers=2)
    conn = http.client.HTTPConnection("127.0.0.1", server.server_port,
                                      timeout=120)
    try:
        _, cold = _post(server.server_port, doc)
        assert not cold["served"]["cached"]
        samples = []
        for _ in range(50):
            start = time.perf_counter()
            conn.request("POST", "/v1/search", body=body)
            resp = conn.getresponse()
            raw = resp.read()
            samples.append(1e3 * (time.perf_counter() - start))
            warm = json.loads(raw)
            assert resp.status == 200 and warm["served"]["cached"]
            assert warm["record"] == cold["record"]
    finally:
        conn.close()
        server.close()
    p50, _RESULTS["keepalive_cache"] = _latency_row(samples,
                                                    MAX_KEEPALIVE_P50_MS)
    assert p50 <= MAX_KEEPALIVE_P50_MS, \
        (f"keep-alive cache p50 {p50:.1f}ms over the "
         f"{MAX_KEEPALIVE_P50_MS}ms budget — responses are waiting on "
         f"the client's delayed ACK")


def test_worker_scaling(tmp_path):
    # Serial and fleet runs are measured as matched pairs per round so
    # scheduler drift between rounds cannot skew the ratio.
    speedup = 0.0
    rounds_used = 0
    for attempt in range(ROUNDS):
        rounds_used = attempt + 1
        serial = _throughput(tmp_path / f"r{attempt}", "workers_1",
                             workers=1)
        fleet = _throughput(tmp_path / f"r{attempt}",
                            f"workers_{SERVE_WORKERS}",
                            workers=SERVE_WORKERS)
        speedup = max(speedup, fleet / max(serial, 1e-9))
        if speedup >= MIN_SPEEDUP:
            break
    _RESULTS["scaling"] = {
        "width": SERVE_WORKERS,
        "speedup": round(speedup, 3),
        "min_speedup": MIN_SPEEDUP,
        "rounds_used": float(rounds_used),
    }
    assert speedup >= MIN_SPEEDUP, \
        (f"{SERVE_WORKERS}-worker server reached only {speedup:.2f}x the "
         f"1-worker throughput ({fleet:.1f} vs {serial:.1f} "
         f"searches/min); floor is {MIN_SPEEDUP}x")
