"""HTTP-level serve tests: endpoints, backpressure, lifecycle, traces."""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.obs.metrics import Metrics
from repro.obs.trace import read_trace, span_tree
from repro.serve.admission import AdmissionController
from repro.serve.engine import SearchEngine
from repro.serve.server import StrategyServer


class Client:
    """Tiny urllib client; errors come back as (status, body) too."""

    def __init__(self, port):
        self.base = f"http://127.0.0.1:{port}"

    def get(self, path):
        try:
            with urllib.request.urlopen(self.base + path, timeout=30) as r:
                return r.status, json.loads(r.read()), dict(r.headers)
        except urllib.error.HTTPError as e:
            return e.code, json.loads(e.read()), dict(e.headers)

    def get_text(self, path):
        with urllib.request.urlopen(self.base + path, timeout=30) as r:
            return r.status, r.read().decode()

    def post(self, doc, raw=None):
        data = raw if raw is not None else json.dumps(doc).encode()
        req = urllib.request.Request(self.base + "/v1/search", data=data)
        try:
            with urllib.request.urlopen(req, timeout=90) as r:
                return r.status, json.loads(r.read()), dict(r.headers)
        except urllib.error.HTTPError as e:
            return e.code, json.loads(e.read()), dict(e.headers)


def start_server(tmp_path, *, max_queue=8, workers=2, trace=None,
                 allow_chaos=True, **engine_kwargs):
    metrics = Metrics()
    engine = SearchEngine(tmp_path / "state", workers=workers,
                          metrics=metrics, **engine_kwargs)
    admission = AdmissionController(max_queue, workers=workers)
    server = StrategyServer(
        ("127.0.0.1", 0), engine=engine, admission=admission,
        metrics=metrics, allow_chaos=allow_chaos,
        trace=None if trace is None else str(trace))
    threading.Thread(target=server.serve_forever, daemon=True).start()
    return server, Client(server.server_port)


class TestEndpoints:
    def test_health_ready_metrics_quarantine(self, tmp_path):
        server, client = start_server(tmp_path)
        try:
            assert client.get("/healthz")[0] == 200
            status, body, _ = client.get("/readyz")
            assert status == 200 and body["ready"]
            status, text = client.get_text("/metrics")
            assert status == 200
            assert "pase_serve_requests_total" in text
            status, body, _ = client.get("/v1/quarantine")
            assert status == 200 and body["quarantine"] == {}
            assert client.get("/nope")[0] == 404
        finally:
            server.close()

    def test_search_then_cache_and_metrics(self, tmp_path):
        server, client = start_server(tmp_path)
        try:
            status, body, _ = client.post({"model": "alexnet", "p": 4})
            assert status == 200 and not body["served"]["cached"]
            status, again, _ = client.post({"model": "alexnet", "p": 4})
            assert status == 200 and again["served"]["cached"]
            assert again["record"] == body["record"]
            assert again["fingerprint"] == body["fingerprint"]
            _, text = client.get_text("/metrics")
            assert 'pase_serve_requests_total{code="200"}' in text
        finally:
            server.close()

    def test_validation_failure_is_structured_400(self, tmp_path):
        server, client = start_server(tmp_path)
        try:
            status, body, _ = client.post({"model": "alexnet", "p": "x",
                                           "bogus": 1})
            assert status == 400
            fields = {e["field"] for e in body["error"]["errors"]}
            assert fields == {"p", "bogus"}
            status, body, _ = client.post(None, raw=b"{not json")
            assert status == 400
            status, body, _ = client.post(None, raw=b'{"model": "alexnet", '
                                          b'"p": 4, "deadline": Infinity}')
            assert status == 400, body
            assert [e["field"] for e in body["error"]["errors"]] == \
                ["deadline"]
            for doc in ({"model": "alexnet", "p": None},
                        {"model": "alexnet", "p": 4, "seed": None}):
                status, body, _ = client.post(doc)
                assert status == 400, body
                assert body["error"]["kind"] == "invalid-request"
        finally:
            server.close()

    def test_oversized_body_413(self, tmp_path):
        server, client = start_server(tmp_path)
        try:
            status, body, _ = client.post(None, raw=b"x" * (65 * 1024))
            assert status == 413
            assert body["error"]["kind"] == "body-too-large"
        finally:
            server.close()


class TestBackpressure:
    def test_full_window_gets_429_with_retry_after(self, tmp_path):
        server, client = start_server(tmp_path, max_queue=1)
        try:
            server.admission.admit()  # occupy the only slot
            status, body, headers = client.post(
                {"model": "alexnet", "p": 4, "seed": 30})
            assert status == 429
            assert body["error"]["kind"] == "queue-full"
            assert float(headers["Retry-After"]) >= 1
            server.admission.release()
            status, _, _ = client.post(
                {"model": "alexnet", "p": 4, "seed": 30})
            assert status == 200
        finally:
            server.close()

    def test_cache_hits_bypass_admission(self, tmp_path):
        server, client = start_server(tmp_path, max_queue=1)
        try:
            assert client.post({"model": "alexnet", "p": 4})[0] == 200
            server.admission.admit()  # window now full
            status, body, _ = client.post({"model": "alexnet", "p": 4})
            assert status == 200 and body["served"]["cached"]
            server.admission.release()
        finally:
            server.close()


class TestLifecycle:
    def test_drain_refuses_new_work_and_readyz_503(self, tmp_path):
        server, client = start_server(tmp_path)
        try:
            assert server.drain(grace=5.0)
            assert client.get("/readyz")[0] == 503
            status, body, _ = client.post({"model": "alexnet", "p": 4,
                                           "seed": 31})
            assert status == 503
            assert body["error"]["kind"] == "draining"
            # Liveness stays up while draining.
            assert client.get("/healthz")[0] == 200
        finally:
            server.close()

    def test_restart_preserves_quarantine_and_cache(self, tmp_path):
        server, client = start_server(tmp_path, max_attempts=2)
        poison = {"model": "alexnet", "p": 4, "seed": 32,
                  "chaos": {"kind": "exit"}}
        try:
            assert client.post({"model": "alexnet", "p": 4})[0] == 200
            status, body, _ = client.post(poison)
            assert status == 503 and body["error"]["kind"] == "quarantined"
        finally:
            server.close()
        server2, client2 = start_server(tmp_path, max_attempts=2)
        try:
            status, body, _ = client2.post(poison)
            assert status == 503 and body["error"]["kind"] == "quarantined"
            status, body, _ = client2.post({"model": "alexnet", "p": 4})
            assert status == 200 and body["served"]["cached"]
            status, body, _ = client2.get("/v1/quarantine")
            assert len(body["quarantine"]) == 1
        finally:
            server2.close()


class TestTracing:
    def test_request_span_forest(self, tmp_path):
        trace = tmp_path / "serve.trace.jsonl"
        server, client = start_server(tmp_path, trace=trace)
        try:
            client.post({"model": "alexnet", "p": 4})   # search
            client.post({"model": "alexnet", "p": 4})   # cache
            client.post({"model": "alexnet", "p": "x"})  # 400
        finally:
            server.close()
        roots = span_tree(read_trace(trace))
        assert len(roots) == 3
        assert {r["name"] for r in roots} == {"serve.request"}
        allowed = {"serve.validate", "serve.admit", "serve.coalesce",
                   "serve.search", "serve.cache", "serve.respond"}
        for root in roots:
            names = [c["name"] for c in root["children"]]
            assert set(names) <= allowed
            assert "serve.respond" in names
        by_status = sorted(r["attrs"]["status"] for r in roots)
        assert by_status == [200, 200, 400]
        searched = [r for r in roots
                    if any(c["name"] == "serve.search"
                           for c in r["children"])]
        cached = [r for r in roots
                  if any(c["name"] == "serve.cache"
                         for c in r["children"])]
        assert len(searched) == 1 and len(cached) == 1
