"""The HTTP surface and lifecycle of ``pase serve``.

A `StrategyServer` is a stdlib ``ThreadingHTTPServer``: one handler
thread per connection, each of which only validates, admits, and then
waits on the `SearchEngine` — all actual search work happens in
crash-isolated pool worker processes, so no request can take the
listener down.

Endpoints::

    POST /v1/search      a strategy query (see repro.serve.wire)
    GET  /healthz        200 while the process is up
    GET  /readyz         200 accepting work; 503 while draining
    GET  /metrics        Prometheus text exposition
    GET  /v1/quarantine  the current poison-fingerprint set

Every request runs under its own in-memory span tree —
``serve.request`` → ``serve.validate`` / ``serve.admit`` /
(``serve.cache`` | ``serve.coalesce`` | ``serve.search``) /
``serve.respond`` — merged into one shared JSONL trace file by
`_TraceLog` (the `Tracer` span stack is per-instance and single
threaded, so concurrent handlers each get their own and the log
serializes the writes, remapping span ids to stay globally unique).

Lifecycle (:func:`serve_forever`): the first SIGTERM/SIGINT flips a
`Cancellation` via the composable `trap_signals` and starts the drain —
``/readyz`` goes 503, new work is refused with a structured 503,
admitted requests run to completion — then the server exits 0.  A
second SIGINT abandons the drain through the documented
`RunInterrupted` path (exit code 6).  A SIGKILLed server loses nothing
durable: the result cache, quarantine, table cache, and task state all
live under ``--state-dir`` as atomic snapshots, and a restart picks
them up.
"""

from __future__ import annotations

import json
import os
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Mapping

from ..core.exceptions import RunInterrupted
from ..fleet.scheduler import DEFAULT_MAX_ATTEMPTS
from ..obs.metrics import Metrics
from ..obs.trace import TRACE_VERSION, NULL_TRACER, Tracer
from ..runtime.budget import Cancellation
from ..runtime.signals import trap_signals
from .admission import AdmissionController
from .engine import SearchEngine, quarantined_error
from .wire import (
    MAX_BODY_BYTES,
    ServeError,
    ServeRequest,
    encode_body,
    success_body,
    validate_request,
)

__all__ = ["StrategyServer", "serve_forever"]

#: Seconds the drain waits for admitted requests before giving up.
DEFAULT_DRAIN_GRACE_SECONDS = 60.0


class _TraceLog:
    """Thread-safe JSONL sink merging per-request in-memory tracers.

    Each handler runs its spans in a private ``Tracer(None)`` (the span
    stack is instance state, not thread-local); on completion the
    request's records are appended here under a lock with span ids
    rebased past everything already written, so `read_trace` /
    ``span_tree`` see one valid multi-root trace file.
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = os.fspath(path)
        parent = os.path.dirname(self.path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        self._lock = threading.Lock()
        self._next_id = 1
        self._fh = open(self.path, "w", encoding="utf-8")
        self._write({"kind": "meta", "version": TRACE_VERSION,
                     "unix_time": time.time(), "clock": "perf_counter"})

    def _write(self, rec: Mapping[str, Any]) -> None:
        self._fh.write(json.dumps(rec, sort_keys=True) + "\n")
        self._fh.flush()

    def append(self, records: list) -> None:
        spans = [r for r in records if r.get("kind") == "span"]
        if not spans:
            return
        with self._lock:
            base = self._next_id
            self._next_id += max(r["id"] for r in spans)
            for rec in spans:
                rec = dict(rec)
                rec["id"] += base
                if rec.get("parent") is not None:
                    rec["parent"] += base
                self._write(rec)

    def close(self) -> None:
        with self._lock:
            self._fh.close()


class _Handler(BaseHTTPRequestHandler):
    """One HTTP request; all state lives on ``self.server``."""

    protocol_version = "HTTP/1.1"
    # TCP_NODELAY on every accepted socket: a keep-alive client must not
    # wait out its own delayed ACK before Nagle lets a response go.
    disable_nagle_algorithm = True
    server: "StrategyServer"

    # -- plumbing ------------------------------------------------------------

    def log_message(self, format: str, *args: Any) -> None:
        if self.server.verbose:  # pragma: no cover - operator convenience
            super().log_message(format, *args)

    def _send(self, status: int, body: dict | str, *,
              retry_after: float | None = None,
              content_type: str = "application/json") -> None:
        """Write one whole response in a single send; count it by status.

        A dict goes out as JSON, a str as UTF-8 text.  The status line,
        headers and body are joined before anything reaches the socket:
        ``end_headers()`` would send the head by itself, and a body sent
        after it waits under Nagle for the client's delayed ACK.  An
        HTTP/0.9 request buffers no head and gets the bare body.
        """
        payload = (body.encode("utf-8") if isinstance(body, str)
                   else encode_body(body))
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        if retry_after is not None:
            self.send_header("Retry-After", str(max(1, round(retry_after))))
        head = getattr(self, "_headers_buffer", [])
        if self.request_version != "HTTP/0.9":
            head.append(b"\r\n")
        self._headers_buffer = []
        # wfile is unbuffered (wbufsize 0): one write is one sendall.
        self.wfile.write(b"".join([*head, payload]))
        with self.server.metrics_lock:
            self.server.metrics.counter(
                "serve_requests_total", "serve requests by status code",
                labels={"code": str(status)}).inc()

    def _read_body(self) -> Any:
        length = self.headers.get("Content-Length", "")
        try:
            # ASCII digits only: int() also takes "-1", "+5", " 5 " and
            # "1_0", and read(-1) blocks until the client hangs up.
            if not (length.isascii() and length.isdigit()):
                raise ValueError(length)
            length = int(length)  # over 4300 digits raises as well
        except ValueError:
            # Where this request ends is unknown: the connection is done.
            self.close_connection = True
            raise ServeError(400, "invalid-request",
                             "missing or malformed Content-Length") from None
        if length > MAX_BODY_BYTES:
            # Don't read an oversized body; the connection is poisoned.
            self.close_connection = True
            raise ServeError(
                413, "body-too-large",
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit")
        raw = self.rfile.read(length)
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as err:
            raise ServeError(400, "invalid-request",
                             f"request body is not valid JSON: {err}") \
                from None

    # -- GET -----------------------------------------------------------------

    def do_GET(self) -> None:
        if self.path == "/healthz":
            self._send(200, {"ok": True})
        elif self.path == "/readyz":
            if self.server.admission.draining:
                self._send(503, {"ready": False, "draining": True})
            else:
                self._send(200, {"ready": True, "draining": False})
        elif self.path == "/metrics":
            with self.server.metrics_lock:
                text = self.server.metrics.to_prometheus()
            self._send(200, text, content_type="text/plain; version=0.0.4")
        elif self.path == "/v1/quarantine":
            self._send(200, {"quarantine":
                             self.server.engine.quarantine_snapshot()})
        else:
            self._send(404, ServeError(404, "not-found",
                                       f"no such path: {self.path}").body())

    # -- POST /v1/search -----------------------------------------------------

    def do_POST(self) -> None:
        if self.path != "/v1/search":
            self._send(404, ServeError(404, "not-found",
                                       f"no such path: {self.path}").body())
            return
        server = self.server
        tracer = Tracer(None) if server.trace_log is not None else NULL_TRACER
        t0 = time.perf_counter()
        status = 500
        with tracer.span("serve.request", path=self.path) as req_span:
            try:
                status = self._search(tracer, req_span)
            except ServeError as err:
                status = err.status
                with tracer.span("serve.respond", status=status):
                    self._send(status, err.body(),
                               retry_after=err.retry_after)
            except Exception as err:  # pragma: no cover - belt and braces
                status = 500
                body = ServeError(500, "internal",
                                  f"{type(err).__name__}: {err}").body()
                with tracer.span("serve.respond", status=500):
                    self._send(500, body)
            req_span.set(status=status)
        with server.metrics_lock:
            server.metrics.histogram(
                "serve_request_seconds",
                "wall seconds per serve request").observe(
                    time.perf_counter() - t0)
        if server.trace_log is not None:
            server.trace_log.append(tracer.records)

    def _search(self, tracer, req_span) -> int:
        """The admitted-request flow; returns the response status."""
        server = self.server
        engine = server.engine
        with tracer.span("serve.validate"):
            doc = self._read_body()
            request = validate_request(
                doc, allow_chaos=server.allow_chaos,
                max_deadline=server.request_deadline)
            task = engine.normalize(request.task)
            fingerprint = engine.fingerprint_of(task)
        req_span.set(fingerprint=fingerprint)
        # Fast paths that never take an admission slot: a cached answer
        # costs a dict lookup; a quarantined fingerprint (without the
        # degrade opt-in) is refused before any work.
        record = engine.cached(fingerprint)
        if record is not None:
            with tracer.span("serve.cache", fingerprint=fingerprint):
                pass
            with tracer.span("serve.respond", status=200):
                self._send(200, success_body(
                    fingerprint, record, cached=True, coalesced=False,
                    attempts=0))
            return 200
        entry = engine.quarantine.get(fingerprint)
        if entry is not None and not request.degrade:
            raise quarantined_error(fingerprint, entry, degradable=True)
        with tracer.span("serve.admit"):
            server.admission.admit()  # raises 429 queue-full / 503 draining
        admitted_at = time.perf_counter()
        try:
            with tracer.span("serve.search") as work_span:
                result = engine.execute(
                    ServeRequest(task=task, deadline=request.deadline,
                                 degrade=request.degrade), fingerprint)
                if tracer.enabled:
                    # Rename to what actually happened; _NullSpan has no
                    # name slot, hence the enabled guard.
                    if result.coalesced:
                        work_span.name = "serve.coalesce"
                    elif result.cached:
                        work_span.name = "serve.cache"
                work_span.set(attempts=result.attempts,
                              degraded=result.degraded)
        finally:
            server.admission.release(time.perf_counter() - admitted_at)
        with tracer.span("serve.respond", status=200):
            self._send(200, success_body(
                result.fingerprint, result.record, cached=result.cached,
                coalesced=result.coalesced, attempts=result.attempts,
                degraded=result.degraded))
        return 200


class StrategyServer(ThreadingHTTPServer):
    """The serve daemon: engine + admission + observability + HTTP.

    Bind with ``port=0`` to let the OS pick (tests); ``server_port``
    reports the bound port either way.
    """

    daemon_threads = True
    # The stdlib default backlog of 5 drops connections under the very
    # bursts this daemon exists to absorb; admission control, not the
    # kernel accept queue, is where load gets shed.
    request_queue_size = 128

    def __init__(self, address: tuple[str, int], *,
                 engine: SearchEngine,
                 admission: AdmissionController,
                 metrics: Metrics | None = None,
                 allow_chaos: bool = False,
                 request_deadline: float | None = None,
                 trace: str | os.PathLike | None = None,
                 verbose: bool = False) -> None:
        self.engine = engine
        self.admission = admission
        self.metrics = metrics if metrics is not None else Metrics()
        self.metrics_lock = threading.Lock()
        self.allow_chaos = allow_chaos
        self.request_deadline = request_deadline
        self.trace_log = None if trace is None else _TraceLog(trace)
        self.verbose = verbose
        super().__init__(address, _Handler)

    def drain(self, grace: float = DEFAULT_DRAIN_GRACE_SECONDS) -> bool:
        """Refuse new work, wait for admitted requests; True if drained."""
        self.admission.start_draining()
        return self.admission.wait_drained(grace)

    def close(self) -> None:
        """Stop accepting, stop the engine, flush everything."""
        self.shutdown()
        self.server_close()
        self.engine.close()
        if self.trace_log is not None:
            self.trace_log.close()


def serve_forever(*, host: str = "127.0.0.1", port: int = 8421,
                  workers: int = 4, max_queue: int = 16,
                  max_attempts: int = DEFAULT_MAX_ATTEMPTS,
                  request_deadline: float | None = None,
                  memory_budget: int | None = None,
                  state_dir: str | os.PathLike = "pase-serve",
                  allow_chaos: bool = False,
                  trace: str | None = None,
                  metrics_path: str | None = None,
                  verbose: bool = False) -> int:
    """Run the daemon until SIGTERM/SIGINT; returns the exit code (0).

    The blocking entry point behind ``pase serve``.  Raises
    `RunInterrupted` (CLI exit code 6) when a second SIGINT abandons
    the drain.
    """
    metrics = Metrics()
    engine = SearchEngine(
        state_dir, workers=workers, max_attempts=max_attempts,
        default_deadline=request_deadline, memory_budget=memory_budget,
        metrics=metrics)
    admission = AdmissionController(max_queue, workers=workers)
    server = StrategyServer(
        (host, port), engine=engine, admission=admission, metrics=metrics,
        allow_chaos=allow_chaos, request_deadline=request_deadline,
        trace=trace, verbose=verbose)
    cancellation = Cancellation()
    listener = threading.Thread(target=server.serve_forever,
                                kwargs={"poll_interval": 0.1},
                                daemon=True, name="serve-listener")
    try:
        with trap_signals(cancellation):
            listener.start()
            print(f"# pase serve on http://{host}:{server.server_port} "
                  f"({workers} workers, window {max_queue}, "
                  f"state {os.fspath(state_dir)})", flush=True)
            try:
                while not cancellation.requested:
                    time.sleep(0.1)
            except KeyboardInterrupt:
                cancellation.set("SIGINT")
            print("# draining: refusing new work, finishing "
                  "in-flight requests", flush=True)
            try:
                drained = server.drain()
            except KeyboardInterrupt:
                # Second SIGINT: the user wants out *now*; unwind via
                # the documented interrupted path (exit code 6).
                raise RunInterrupted(
                    "drain abandoned by a second interrupt") from None
            if not drained:  # pragma: no cover - pathological stall
                print("# drain grace expired with requests still in "
                      "flight", flush=True)
    finally:
        server.close()
        listener.join(timeout=5.0)
        if metrics_path is not None:
            metrics.dump(metrics_path)
    print("# serve: drained clean, state flushed", flush=True)
    return 0
