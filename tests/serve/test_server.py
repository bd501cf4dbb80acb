"""HTTP-level serve tests: endpoints, framing, backpressure, lifecycle,
traces."""

import http.client
import json
import re
import socket
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


def raw_exchange(port, request, timeout=10.0):
    """Send raw request bytes; return all bytes until the server closes."""
    with socket.create_connection(("127.0.0.1", port),
                                  timeout=timeout) as sock:
        sock.sendall(request)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks)


@pytest.fixture
def server_sends(monkeypatch):
    """Record every send on an accepted server socket.

    Add a server's port to the returned set; each ``send``/``sendall``
    on a socket bound to it appends ``(bytes, TCP_NODELAY)`` to the
    returned list before the bytes leave, so once a client holds a whole
    response, every send that carried it has been recorded.
    """
    ports, sends = set(), []

    def spy(real):
        def call(sock, data, *args):
            if (sock.family == socket.AF_INET
                    and sock.getsockname()[1] in ports):
                nodelay = sock.getsockopt(socket.IPPROTO_TCP,
                                          socket.TCP_NODELAY)
                sends.append((bytes(data), nodelay))
            return real(sock, data, *args)
        return call

    for name in ("send", "sendall"):
        monkeypatch.setattr(socket.socket, name,
                            spy(getattr(socket.socket, name)))
    return ports, sends


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

    @pytest.mark.parametrize("length", ["-1", "+5", " 5 ", "1_0", "5x", ""])
    def test_malformed_content_length_400_before_reading(self, tmp_path,
                                                          length):
        # No body follows: a server that trusted int() would wait on
        # read() until the client gave up instead of answering.
        server, _ = start_server(tmp_path)
        try:
            reply = raw_exchange(
                server.server_port,
                b"POST /v1/search HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: " + length.encode() + b"\r\n\r\n",
                timeout=5.0)
        finally:
            server.close()
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        error = json.loads(body)["error"]
        assert error["kind"] == "invalid-request"
        assert "Content-Length" in error["message"]


class TestOneSend:
    """Each response leaves in one send on a TCP_NODELAY socket."""

    def test_every_response_is_one_send(self, tmp_path, server_sends):
        ports, sends = server_sends
        server, _ = start_server(tmp_path, max_queue=1)
        port = server.server_port
        ports.add(port)
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=90)

        def exchange(method, path, doc=None, raw=None):
            """One request on the keep-alive connection; one send back."""
            before = len(sends)
            body = raw if doc is None else json.dumps(doc).encode()
            conn.request(method, path, body=body)
            resp = conn.getresponse()
            payload = resp.read()
            assert len(sends) == before + 1, (method, path, sends[before:])
            data, nodelay = sends[-1]
            assert nodelay
            assert data.startswith(b"HTTP/1.1 %d " % resp.status)
            assert data.endswith(b"\r\n\r\n" + payload)
            return resp, payload

        def counts(text):
            """``serve_requests_total`` by status code, off a scrape."""
            return {code: float(value) for code, value in re.findall(
                r'^pase_serve_requests_total\{code="(\d+)"\} (\S+)$',
                text, re.M)}

        try:
            problem = {"model": "alexnet", "p": 4}
            resp, miss = exchange("POST", "/v1/search", problem)
            sock = conn.sock
            miss = json.loads(miss)
            assert resp.status == 200 and not miss["served"]["cached"]
            assert miss["served"]["attempts"] == 1  # run by a worker
            resp, hit = exchange("POST", "/v1/search", problem)
            hit = json.loads(hit)
            assert resp.status == 200 and hit["served"]["cached"]
            assert hit["record"] == miss["record"]

            resp, body = exchange("POST", "/v1/search", raw=b"{not json")
            assert resp.status == 400
            assert json.loads(body)["error"]["kind"] == "invalid-request"
            resp, body = exchange("GET", "/nope")
            assert resp.status == 404
            assert json.loads(body)["error"]["kind"] == "not-found"
            server.admission.admit()  # occupy the only slot
            resp, body = exchange("POST", "/v1/search",
                                  {"model": "alexnet", "p": 4, "seed": 30})
            server.admission.release()
            assert resp.status == 429
            assert json.loads(body)["error"]["kind"] == "queue-full"
            assert float(resp.getheader("Retry-After")) >= 1
            resp, text = exchange("GET", "/metrics")
            assert resp.status == 200
            assert counts(text.decode()) == {
                "200": 2.0, "400": 1.0, "404": 1.0, "429": 1.0}

            # A 413 is not read past its headers and closes the connection.
            before = len(sends)
            reply = raw_exchange(
                port, b"POST /v1/search HTTP/1.1\r\nHost: x\r\n"
                      b"Content-Length: 70000\r\n\r\n")
            (data, nodelay), = sends[before:]
            assert data == reply and nodelay
            head, _, body = reply.partition(b"\r\n\r\n")
            assert head.startswith(b"HTTP/1.1 413 ")
            assert json.loads(body)["error"]["kind"] == "body-too-large"

            # The first /metrics response is counted too.
            resp, text = exchange("GET", "/metrics")
            assert counts(text.decode()) == {
                "200": 3.0, "400": 1.0, "404": 1.0, "413": 1.0, "429": 1.0}
            assert conn.sock is sock, "the keep-alive connection was reset"
        finally:
            conn.close()
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
