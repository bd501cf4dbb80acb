"""serve-mix: a real ``pase serve`` subprocess driven over HTTP.

One client process with ``CLIENT_THREADS`` threads, each holding one
keep-alive connection, runs an open loop of seeded random arrivals
(requests are timed from their scheduled send time) and then a closed
loop of misses.  The traced run restarts the server with ``--trace`` and
splits request time by the server's own request spans, the workers'
``result.json`` timings and the ``/metrics`` counters.
"""

from __future__ import annotations

import contextlib
import http.client
import json
import os
import random
import re
import select
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from statistics import median

from common import (SRC, Oracle, geomean, layer_self_times, metric,
                    percentile, tail_percentile)
from workloads import (CLIENT_THREADS, DUP_GAP, DUP_SHARE, HOT_SHARE,
                       LATENCY_LIMIT_MS, OPEN_RATE, OPEN_SHARE, SERVE_CLOSED,
                       SERVE_HOT, SERVE_MISS, SERVE_WORKERS, scalar_key)

#: Seconds a single request may take before it counts as failed.
REQUEST_TIMEOUT = 60.0
#: Seconds to wait for the server to bind, and then to drain on SIGTERM.
START_TIMEOUT = 60.0
STOP_TIMEOUT = 60.0

#: Server spans -> layer metric names (``serve.request`` self time is
#: the handler's own glue and stays unattributed).
SPAN_LAYERS = {"serve.validate": "wire.validate",
               "serve.admit": "admission.wait",
               "serve.cache": "coalesce.wait",
               "serve.coalesce": "coalesce.wait",
               "serve.respond": "server.respond"}
LAYERS = ("wire.validate", "admission.wait", "coalesce.wait",
          "server.respond", "engine.dispatch", "worker.search",
          "client.overhead", "client.late")
#: /metrics counters -> layer count metrics.
COUNTERS = {"pase_serve_coalesce_hits_total": "coalesce.coalesced",
            'pase_serve_requests_total{code="429"}': "admission.rejected",
            "pase_serve_retries_total": "engine.retries",
            "pase_serve_worker_crashes_total": "engine.crashes",
            "pase_serve_worker_spawned_total": "pool.spawned",
            "pase_serve_worker_reused_total": "pool.reused"}


# -- the request mix ------------------------------------------------------------

def open_schedule(seed: int, rate: float, duration: float) -> list[dict]:
    """Seeded open-loop schedule: ``{"t", "kind", "doc"}`` sorted by ``t``.

    Arrival times are a Poisson process conditioned on its count: exactly
    ``rate * duration`` uniform times, so every seed offers the same load
    and only the pattern varies.  The shares are exact too.  Hot requests
    repeat pre-warmed problems; each miss carries a fresh request seed so
    it needs a worker, and some misses are sent twice a moment apart so
    the second coalesces onto the first.
    """
    rng = random.Random(seed)
    n = round(rate * duration)
    times = sorted(rng.uniform(0.0, duration) for _ in range(n))
    n_miss = round((1.0 - HOT_SHARE) * n)
    kinds = ["miss"] * n_miss + ["hit"] * (n - n_miss)
    rng.shuffle(kinds)
    dups = set(rng.sample(range(n_miss), round(DUP_SHARE * n_miss)))
    used: set[int] = set()
    out: list[dict] = []
    misses = 0
    for t, kind in zip(times, kinds):
        if kind == "hit":
            out.append({"t": t, "kind": "hit",
                        "doc": dict(rng.choice(SERVE_HOT))})
            continue
        doc = {**rng.choice(SERVE_MISS), "seed": _fresh(rng, used, 1)}
        out.append({"t": t, "kind": "miss", "doc": doc})
        if misses in dups:
            out.append({"t": t + DUP_GAP, "kind": "miss", "doc": dict(doc)})
        misses += 1
    out.sort(key=lambda r: r["t"])
    return out


def closed_docs(seed: int):
    """Endless seeded closed-loop misses; request seeds never overlap the
    open loop's (they are drawn from a disjoint range)."""
    rng = random.Random(seed)
    used: set[int] = set()
    while True:
        yield {**SERVE_CLOSED, "seed": _fresh(rng, used, 2 ** 31)}


def _fresh(rng: random.Random, used: set[int], base: int) -> int:
    while True:
        seed = base + rng.randrange(2 ** 31 - 1)
        if seed not in used:
            used.add(seed)
            return seed


# -- load generation ------------------------------------------------------------

def open_loop(schedule: list[dict], senders) -> list[dict]:
    """Send each request at its scheduled offset, one sender per thread.

    Returns per request its ``due``, ``sent`` and ``done`` offsets (seconds
    from the loop start) and the sender's ``(status, body)``.  Latency is
    ``done - due``: a request that waits for a free thread is late, and
    the wait counts against it.
    """
    results: list[dict | None] = [None] * len(schedule)
    lock = threading.Lock()
    pending = iter(range(len(schedule)))
    start = time.perf_counter()

    def run(send) -> None:
        while True:
            with lock:
                i = next(pending, None)
            if i is None:
                return
            due = schedule[i]["t"]
            delay = start + due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent = time.perf_counter() - start
            status, body = send(schedule[i]["doc"])
            results[i] = {"due": due, "sent": sent,
                          "done": time.perf_counter() - start,
                          "status": status, "body": body}

    _run_threads(run, senders)
    return results


def closed_loop(senders, docs, seconds: float) -> tuple[list[dict], float]:
    """Each sender sends its next request as soon as the last one returns,
    until ``seconds`` pass; returns the requests (shaped like
    `open_loop`'s, due when sent) and the wall time."""
    results: list[dict] = []
    lock = threading.Lock()
    start = time.perf_counter()

    def run(send) -> None:
        while time.perf_counter() - start < seconds:
            with lock:
                doc = next(docs)
            sent = time.perf_counter() - start
            status, body = send(doc)
            with lock:
                results.append({"doc": doc, "due": sent, "sent": sent,
                                "done": time.perf_counter() - start,
                                "status": status, "body": body})

    _run_threads(run, senders)
    return results, time.perf_counter() - start


def _run_threads(target, senders) -> None:
    threads = [threading.Thread(target=target, args=(send,))
               for send in senders]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


class Client:
    """One keep-alive HTTP connection to the server."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.conn: http.client.HTTPConnection | None = None

    def request(self, method: str, path: str, body: bytes | None = None):
        """``(status, payload bytes)``; status 0 when the transport failed."""
        try:
            if self.conn is None:
                self.conn = http.client.HTTPConnection(
                    "127.0.0.1", self.port, timeout=REQUEST_TIMEOUT)
                self.conn.connect()
                # http.client writes headers and body separately; without
                # this, Nagle holds the body for the server's delayed ACK
                # and every request pays ~40 ms.
                self.conn.sock.setsockopt(socket.IPPROTO_TCP,
                                          socket.TCP_NODELAY, 1)
            self.conn.request(method, path, body,
                              {"Content-Type": "application/json"})
            resp = self.conn.getresponse()
            return resp.status, resp.read()
        except (OSError, http.client.HTTPException):
            self.close()
            return 0, b""

    def search(self, doc: dict) -> tuple[int, dict | None]:
        status, payload = self.request("POST", "/v1/search",
                                       json.dumps(doc).encode())
        return status, json.loads(payload) if status == 200 else None

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None


# -- the server process ----------------------------------------------------------

class Server:
    """``python -m repro.cli serve`` in a subprocess, on an OS-picked port."""

    def __init__(self, work: Path, *, trace: bool) -> None:
        self.state = Path(tempfile.mkdtemp(dir=work, prefix="serve-"))
        self.trace = self.state / "trace.jsonl" if trace else None
        cmd = [sys.executable, "-m", "repro.cli", "serve",
               "--workers", str(SERVE_WORKERS), "--port", "0",
               "--state-dir", str(self.state)]
        if self.trace is not None:
            cmd += ["--trace", str(self.trace)]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC), env.get("PYTHONPATH")]))
        with open(self.state / "server.log", "wb") as log:
            self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                         stderr=log, env=env)
        try:
            self.port = self._read_port()
        except BaseException:
            self.stop()
            raise

    def _read_port(self) -> int:
        deadline = time.monotonic() + START_TIMEOUT
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.1)
            if ready:
                line = self.proc.stdout.readline().decode()
                match = re.search(r"http://[^:]+:(\d+)", line)
                if match:
                    return int(match.group(1))
                if not line:
                    break
        raise RuntimeError(f"server did not start; see {self.state}")

    def wait_ready(self) -> None:
        client = Client(self.port)
        deadline = time.monotonic() + START_TIMEOUT
        try:
            while client.request("GET", "/readyz")[0] != 200:
                if time.monotonic() > deadline:
                    raise RuntimeError("server never became ready")
                time.sleep(0.01)
        finally:
            client.close()

    def counters(self) -> dict[str, float]:
        client = Client(self.port)
        try:
            status, payload = client.request("GET", "/metrics")
        finally:
            client.close()
        out = {}
        for line in payload.decode().splitlines():
            if line and not line.startswith("#"):
                name, _, value = line.rpartition(" ")
                out[name] = float(value)
        return out

    def stop(self) -> int:
        """SIGTERM drains and exits 0; anything else is killed."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=STOP_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
        return self.proc.returncode


# -- the workload ----------------------------------------------------------------

class ServeWorkload:
    def __init__(self, spec: dict, work: Path, oracle: Oracle,
                 smoke: bool = False) -> None:
        self.work = work
        self.oracle = oracle
        self.server: Server | None = None
        self.served: dict[tuple, dict] = {}   # (model, p, reduce) -> record

    def setup(self) -> None:
        self.server = self._start(trace=False)

    def _start(self, trace: bool) -> Server:
        """Spawn, wait for /readyz, and answer every hot problem once."""
        server = Server(self.work, trace=trace)
        try:
            server.wait_ready()
            with self._senders(server) as senders:
                self._check(open_loop([{"t": 0.0, "doc": dict(d)}
                                       for d in SERVE_HOT], senders))
        except BaseException:
            server.stop()
            raise
        return server

    @contextlib.contextmanager
    def _senders(self, server: Server):
        """One ``search`` callable per client thread, each on its own
        connection."""
        clients = [Client(server.port) for _ in range(CLIENT_THREADS)]
        try:
            yield [c.search for c in clients]
        finally:
            for client in clients:
                client.close()

    def close(self) -> None:
        if self.server is not None:
            self._stop()

    def _stop(self) -> None:
        code = self.server.stop()
        self.oracle.check(code == 0, f"server exited with {code}")
        self.server = None

    def _check(self, results: list[dict]) -> list[float]:
        """Check every answer; returns latencies in ms, failures as inf."""
        latencies = []
        for rec in results:
            doc = rec.get("doc") or {}
            body = rec["body"]
            if rec["status"] != 200:
                self.oracle.fail(f"{doc}: HTTP {rec['status']}")
                ok = False
            else:
                task = body["record"]["task"]
                key = (task["model"], task["p"], task["reduce"])
                ok = self.oracle.cost(scalar_key(*key),
                                      body["record"]["cost"])
                self.served.setdefault(key, body["record"])
            latencies.append(1e3 * (rec["done"] - rec["due"]) if ok
                             else float("inf"))
        return latencies

    def _open(self, seed: int, seconds: float) -> tuple[list, dict]:
        """One open-loop phase; latencies (ms) in total and per class."""
        schedule = open_schedule(seed, OPEN_RATE, seconds)
        with self._senders(self.server) as senders:
            results = open_loop(schedule, senders)
        for req, rec in zip(schedule, results):
            rec["doc"], rec["kind"] = req["doc"], req["kind"]
        latencies = self._check(results)
        classes: dict[str, list[float]] = {}
        for ms, rec in zip(latencies, results):
            name = "hit" if rec["kind"] == "hit" else \
                f"{rec['doc']['model']}/{rec['doc']['p']}"
            classes.setdefault(name, []).append(ms)
        return results, {"all": latencies, "classes": classes}

    def measure(self, seed: int, seconds: float, trace: bool) -> dict:
        if trace:
            return self._measure_traced(seed, seconds)
        open_s = seconds * OPEN_SHARE
        results, lat = self._open(seed, open_s)
        with self._senders(self.server) as senders:
            closed, wall = closed_loop(senders, closed_docs(seed),
                                       seconds - open_s)
        closed_ms = self._check(closed)
        self._stop()
        metrics = self._latency_metrics(lat)
        metrics["throughput"] = metric(len(closed) / wall, "1/s", len(closed))
        metrics["closed_p50_ms"] = metric(median(closed_ms), "ms",
                                          len(closed_ms))
        late = [1e3 * (r["sent"] - r["due"]) for r in results]
        q = tail_percentile(len(late))
        if q is not None:
            metrics[f"client_late_p{q:g}_ms"] = metric(
                percentile(late, q), "ms", len(late))
        metrics.update(self._quality())
        return {"metrics": metrics}

    @staticmethod
    def _latency_metrics(lat: dict) -> dict:
        """Geomean of the hit median and the misses' per-class medians.

        Per-class medians keep the seed's share of each miss problem out
        of the number.  The tail is the highest percentile the sample
        supports; whether it meets ``LATENCY_LIMIT_MS`` is reported, not
        enforced.
        """
        classes = lat["classes"]
        hit = median(classes["hit"])
        miss = geomean(median(v) for k, v in classes.items() if k != "hit")
        out = {"latency_ms": metric(geomean([hit, miss]), "ms",
                                    len(lat["all"])),
               "hit_p50_ms": metric(hit, "ms", len(classes["hit"])),
               "miss_p50_ms": metric(miss, "ms",
                                     len(lat["all"]) - len(classes["hit"]))}
        q = tail_percentile(len(lat["all"]))
        if q is not None:
            tail = percentile(lat["all"], q)
            out[f"latency_p{q:g}_ms"] = metric(tail, "ms", len(lat["all"]))
            out["tail_within_limit"] = metric(
                float(tail <= LATENCY_LIMIT_MS), "bool")
        return out

    def _quality(self) -> dict:
        """Simulated speedup of the served strategies over data parallel,
        and the recurrence-(2) check on the served chain problems."""
        from repro.api import Problem, simulate
        from repro.baselines.data_parallel import data_parallel_strategy
        from repro.core.strategy import Strategy

        speedups = []
        for (model, p, _), record in sorted(self.served.items()):
            self.oracle.chain(model, p, record["cost"])
            prob = Problem.from_benchmark(model, p)
            found = simulate(prob, Strategy(record["strategy"])).step_time
            dp = simulate(prob, data_parallel_strategy(prob.graph, p))
            speedups.append(dp.step_time / found)
        return {"sim_speedup_vs_dp": metric(geomean(speedups), "x",
                                            len(speedups))}

    # -- traced run ------------------------------------------------------------

    def _measure_traced(self, seed: int, seconds: float) -> dict:
        """Half the time untraced, half on a fresh server with --trace."""
        _, base = self._open(seed, seconds / 2)
        self._stop()
        self.server = self._start(trace=True)
        before = self.server.counters()
        results, lat = self._open(seed, seconds / 2)
        after = self.server.counters()
        server = self.server
        self._stop()
        metrics = self._latency_metrics(lat)
        overhead = metrics["latency_ms"]["value"] / \
            self._latency_metrics(base)["latency_ms"]["value"] - 1
        layers, spans = self._attribute(server, results)
        layers["trace.overhead_frac"] = metric(overhead, "ratio",
                                               len(results))
        layers["coalesce.cache_hit_frac"] = metric(
            _delta(after, before, "pase_serve_result_cache_hits_total")
            / len(results), "ratio", len(results))
        for counter, name in COUNTERS.items():
            layers[name] = metric(_delta(after, before, counter), "count")
        return {"metrics": metrics, "layers": layers, "spans": spans}

    def _attribute(self, server: Server, results: list[dict]) -> tuple:
        """Split the measured requests' latency into layer shares."""
        from repro.fleet.worker import read_json, task_dir
        from repro.obs.trace import read_trace, span_tree

        spans = read_trace(server.trace)
        roots = sorted(span_tree(spans), key=lambda r: r["id"])
        roots = roots[len(SERVE_HOT):]           # drop the pre-warm requests
        totals: dict[str, float] = {}
        for span, seconds in layer_self_times(roots).items():
            name = SPAN_LAYERS.get(span, span)
            totals[name] = totals.get(name, 0.0) + seconds
        search_s = totals.pop("serve.search", 0.0)
        search_ms = {root["attrs"].get("fingerprint"): 1e3 * child["seconds"]
                     for root in roots for child in root["children"]
                     if child["name"] == "serve.search"}
        worker_ms, dispatch_ms = [], []
        for rec in results:
            body = rec["body"]
            if body is None or body["served"]["cached"] or \
                    body["served"]["coalesced"]:
                continue
            doc = read_json(task_dir(server.state, body["record"]["task_id"])
                            / "result.json")
            worker_ms.append(1e3 * doc["elapsed_seconds"])
            dispatch_ms.append(search_ms[body["fingerprint"]] - worker_ms[-1])
        totals["worker.search"] = sum(worker_ms) / 1e3
        totals["engine.dispatch"] = search_s - totals["worker.search"]
        latency = sum(r["done"] - r["due"] for r in results)
        totals["client.late"] = sum(r["sent"] - r["due"] for r in results)
        totals["client.overhead"] = latency - totals["client.late"] - sum(
            r["seconds"] for r in roots)
        layers = {f"{name}_frac": metric(totals.get(name, 0.0) / latency,
                                         "ratio", len(results))
                  for name in LAYERS}
        layers["trace.coverage_frac"] = metric(
            sum(totals.get(name, 0.0) for name in LAYERS) / latency,
            "ratio", len(results))
        if worker_ms:
            for name, values in (
                    ("engine.search_ms",
                     [w + d for w, d in zip(worker_ms, dispatch_ms)]),
                    ("worker.search_ms", worker_ms),
                    ("engine.dispatch_overhead_ms", dispatch_ms)):
                layers[name] = metric(median(values), "ms", len(values))
        return layers, spans


def _delta(after: dict, before: dict, name: str) -> float:
    return after.get(name, 0.0) - before.get(name, 0.0)
