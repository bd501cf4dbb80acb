"""Wire schemas for the serve daemon: requests, responses, errors.

Everything that crosses the HTTP boundary is defined here, so the
handler and engine never guess at shapes:

* :func:`validate_request` turns a decoded JSON body into a
  `ServeRequest` or raises a `ServeError` carrying a structured 400 —
  every problem found, each with the offending ``field`` — *before* any
  search work starts.  The task fields are checked by the fleet's one
  task schema (`repro.fleet.spec.task_problems`), so a request and a
  sweep task accept exactly the same types and values.
* `ServeError` is the one exception the HTTP layer translates: it
  carries the status code, a machine-readable ``kind``, optional
  per-field detail, and an optional ``Retry-After`` hint.
* :func:`success_body` / `ServeError.body` are the only two response
  shapes the server emits, both deterministic (sorted keys) so
  identical answers are byte-identical on the wire.

The deterministic ``record`` inside a success body is exactly the fleet
worker's result record (task, cost, method, strategy) — byte-identical
across cache hits, coalesced waiters, retries, and server restarts for
equal request fingerprints.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Mapping

from ..core.exceptions import PaseError
from ..fleet.spec import SweepTask, task_problems, task_type_problems

__all__ = ["WIRE_VERSION", "MAX_BODY_BYTES", "MAX_P", "ServeError",
           "ServeRequest", "validate_request", "success_body",
           "encode_body"]

#: Response schema version, embedded in every body.
WIRE_VERSION = 1

#: Largest request body the server will read (a valid request is <1 KiB;
#: anything larger is garbage or abuse).
MAX_BODY_BYTES = 64 * 1024

#: Largest device count a request may ask for: the configuration-space
#: enumeration is exponential-ish in log2(p), so this is an admission
#: decision, not a numeric limit.
MAX_P = 1024


class ServeError(PaseError):
    """A structured, HTTP-mappable serve failure.

    Parameters
    ----------
    status:
        HTTP status code (400, 413, 429, 503, 504, ...).
    kind:
        Machine-readable failure class (``invalid-request``,
        ``queue-full``, ``quarantined``, ``deadline``, ``resource``,
        ``draining``, ...).
    message:
        Human-readable one-liner.
    errors:
        Optional per-field problems, each ``{"field": ..., "message":
        ...}`` (validation failures carry every problem found).
    retry_after:
        Optional client backoff hint in seconds (429/503 responses emit
        it as a ``Retry-After`` header too).
    detail:
        Optional extra context (e.g. the quarantined fingerprint and
        last worker error).
    """

    def __init__(self, status: int, kind: str, message: str, *,
                 errors: list[dict[str, str]] | None = None,
                 retry_after: float | None = None,
                 detail: Mapping[str, Any] | None = None) -> None:
        super().__init__(message)
        self.status = int(status)
        self.kind = kind
        self.message = message
        self.errors = errors or []
        self.retry_after = retry_after
        self.detail = dict(detail) if detail else {}

    def body(self) -> dict[str, Any]:
        doc: dict[str, Any] = {
            "version": WIRE_VERSION,
            "error": {"kind": self.kind, "message": self.message},
        }
        if self.errors:
            doc["error"]["errors"] = self.errors
        if self.retry_after is not None:
            doc["error"]["retry_after"] = round(float(self.retry_after), 3)
        if self.detail:
            doc["error"]["detail"] = self.detail
        return doc


@dataclass(frozen=True)
class ServeRequest:
    """One validated strategy query, ready for the engine.

    ``task`` is the fleet `SweepTask` the worker will execute;
    ``deadline`` caps this request's wall clock (both the waiter and the
    worker's `RunBudget`); ``degrade`` opts into the resilient
    degradation ladder as a fallback when the problem is quarantined.
    """

    task: SweepTask
    deadline: float | None = None
    degrade: bool = False


#: Request fields that are not task fields, and task fields a request
#: may not set (a served search runs no fault plan and no frontier).
_REQUEST_ONLY = frozenset({"deadline", "degrade"})
_SWEEP_ONLY = frozenset({"objective", "faults", "faults_name"})


def validate_request(doc: Any, *, allow_chaos: bool = False,
                     max_deadline: float | None = None) -> ServeRequest:
    """Schema-check one decoded request body; raises `ServeError` (400).

    Collects *every* problem before failing, so a client fixing its
    request sees the full list at once.  The task fields go through the
    fleet's task schema; the rules kept here belong to a request: ``p``
    is required and at most `MAX_P`, ``deadline`` and ``degrade`` are
    checked, and ``chaos`` (the fleet's test-only worker-misbehaviour
    hook) is rejected unless the server was started with
    ``--allow-chaos`` — production servers never run client-injected
    faults.  A well-formed request naming a task no worker can run gets
    the schema's message instead of a field list.
    """
    if not isinstance(doc, dict):
        raise ServeError(400, "invalid-request",
                         "request body must be a JSON object")
    fields = {k: v for k, v in doc.items()
              if k in SweepTask.__dataclass_fields__ and k not in _SWEEP_ONLY}
    errors = [{"field": name, "message": "unknown field"}
              for name in sorted(set(doc) - set(fields) - _REQUEST_ONLY)]
    errors += task_type_problems(fields)
    p = doc.get("p")
    if "p" not in doc:
        errors.append({"field": "p", "message": "required"})
    elif type(p) is int and p > MAX_P:
        errors.append({"field": "p", "message": f"p={p} exceeds the "
                       f"service limit of {MAX_P}"})
    deadline = doc.get("deadline")
    if isinstance(deadline, bool) or not isinstance(
            deadline, (int, float, type(None))):
        errors.append({"field": "deadline", "message": "expected int"})
    elif deadline is not None and deadline <= 0:
        errors.append({"field": "deadline", "message": "must be positive"})
    degrade = doc.get("degrade", False)
    if not isinstance(degrade, bool):
        errors.append({"field": "degrade", "message": "expected bool"})
    if fields.get("chaos") is not None and not allow_chaos:
        errors.append({"field": "chaos",
                       "message": "chaos injection is disabled on this "
                       "server (start with --allow-chaos)"})
    if errors:
        raise ServeError(400, "invalid-request", "request failed validation",
                         errors=errors)
    problems = task_problems(fields)
    if problems:
        raise ServeError(400, "invalid-request",
                         "; ".join(q["message"] for q in problems))
    if max_deadline is not None:
        deadline = (max_deadline if deadline is None
                    else min(float(deadline), max_deadline))
    return ServeRequest(task=SweepTask(**fields),
                        deadline=None if deadline is None
                        else float(deadline),
                        degrade=degrade)


def success_body(fingerprint: str, record: Mapping[str, Any], *,
                 cached: bool, coalesced: bool, attempts: int,
                 degraded: bool = False) -> dict[str, Any]:
    """The one success shape: deterministic record + served metadata."""
    return {
        "version": WIRE_VERSION,
        "fingerprint": fingerprint,
        "record": dict(record),
        "served": {
            "cached": bool(cached),
            "coalesced": bool(coalesced),
            "attempts": int(attempts),
            "degraded": bool(degraded),
        },
    }


def encode_body(doc: Mapping[str, Any]) -> bytes:
    """Canonical wire encoding (sorted keys, trailing newline)."""
    return (json.dumps(doc, sort_keys=True, indent=None,
                       separators=(",", ":")) + "\n").encode("utf-8")
