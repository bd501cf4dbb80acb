"""Cross-request state: result cache and poison quarantine.

Both stores key on the public `Problem.fingerprint` digest — the
canonical content hash of *(problem, search parameters)* — and both
persist under ``--state-dir`` through the journal's atomic temp-file +
``os.replace`` pattern, so a SIGKILLed server restarts with the same
answers and the same quarantine decisions (crash at any instant leaves
the old snapshot or the new one, never a torn file).

`ResultCache`
    LRU-capped map of fingerprint → deterministic result record.  The
    *answer* plane: a warm hit costs a dict lookup, no DP work, no
    worker round-trip.  (Cost *tables* have their own shared
    content-addressed `TableCache` under the state dir, so even a cold
    result for a previously-seen problem skips table construction.)

`Quarantine`
    Map of fingerprint → the evidence that convicted it (attempts,
    last error kind/detail).  Mirrors the fleet's exit-7 poison-task
    semantics: a problem that crashed/timed out ``max_attempts``
    workers answers 503 immediately instead of burning more processes.

Writes are throttled (`FLUSH_INTERVAL_SECONDS`) for the cache — losing
the last few seconds of cached answers to a crash merely costs a
recompute — and immediate for the quarantine, whose whole point is
surviving the restart after the crash it just witnessed.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import OrderedDict
from pathlib import Path
from typing import Any, Mapping

from ..obs.metrics import atomic_write_text

__all__ = ["ResultCache", "Quarantine", "CACHE_VERSION"]

#: On-disk schema version for both stores.
CACHE_VERSION = 1

#: Most entries a `ResultCache` keeps (LRU eviction beyond it).
DEFAULT_CACHE_ENTRIES = 4096

#: Minimum seconds between result-cache disk flushes.
FLUSH_INTERVAL_SECONDS = 0.5


def _load(path: Path, label: str) -> dict[str, Any]:
    """Tolerant snapshot load: missing/corrupt/foreign files mean empty
    (the stores are rebuildable; refusing to start over them would turn
    a disk hiccup into an outage)."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError):
        return {}
    if not isinstance(doc, dict) or doc.get("version") != CACHE_VERSION \
            or not isinstance(doc.get(label), dict):
        return {}
    return doc[label]


class ResultCache:
    """Thread-safe, LRU-capped, crash-safe fingerprint → record map."""

    def __init__(self, path: str | os.PathLike | None, *,
                 max_entries: int = DEFAULT_CACHE_ENTRIES) -> None:
        self.path = None if path is None else Path(path)
        self.max_entries = max(1, int(max_entries))
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, dict]" = OrderedDict()
        self._last_flush = 0.0
        self._dirty = False
        if self.path is not None:
            for fp, rec in _load(self.path, "results").items():
                if isinstance(rec, dict):
                    self._entries[fp] = rec
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, fingerprint: str) -> dict | None:
        with self._lock:
            rec = self._entries.get(fingerprint)
            if rec is not None:
                self._entries.move_to_end(fingerprint)
            return rec

    def put(self, fingerprint: str, record: Mapping[str, Any]) -> None:
        with self._lock:
            self._entries[fingerprint] = dict(record)
            self._entries.move_to_end(fingerprint)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
            self._dirty = True
            flush_due = (time.monotonic() - self._last_flush
                         >= FLUSH_INTERVAL_SECONDS)
        if flush_due:
            self.flush()

    def flush(self) -> None:
        """Atomically persist the snapshot (no-op when memory-only)."""
        if self.path is None:
            return
        with self._lock:
            if not self._dirty:
                return
            doc = {"version": CACHE_VERSION,
                   "results": dict(self._entries)}
            self._dirty = False
            self._last_flush = time.monotonic()
        atomic_write_text(self.path,
                          json.dumps(doc, sort_keys=True, indent=None))


class Quarantine:
    """Thread-safe, crash-safe set of poisoned fingerprints."""

    def __init__(self, path: str | os.PathLike | None) -> None:
        self.path = None if path is None else Path(path)
        self._lock = threading.Lock()
        self._entries: dict[str, dict] = {}
        if self.path is not None:
            self._entries = {
                fp: rec for fp, rec in
                _load(self.path, "quarantine").items()
                if isinstance(rec, dict)}

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, fingerprint: str) -> dict | None:
        with self._lock:
            return self._entries.get(fingerprint)

    def add(self, fingerprint: str, *, attempts: int, kind: str,
            detail: str, label: str = "") -> dict:
        entry = {
            "attempts": int(attempts),
            "kind": kind,
            "detail": detail,
            "label": label,
            "quarantined_at": time.time(),
        }
        with self._lock:
            self._entries[fingerprint] = entry
        self.flush()  # immediate: must survive the crash it witnessed
        return entry

    def snapshot(self) -> dict[str, dict]:
        with self._lock:
            return {fp: dict(rec) for fp, rec in self._entries.items()}

    def flush(self) -> None:
        if self.path is None:
            return
        with self._lock:
            doc = {"version": CACHE_VERSION, "quarantine": dict(self._entries)}
        atomic_write_text(self.path,
                          json.dumps(doc, sort_keys=True, indent=None))
