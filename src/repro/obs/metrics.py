"""Counter/gauge/histogram registry for search-pipeline telemetry.

A `Metrics` registry holds named instruments that the instrumented
phases (`CostModel.build_tables`, `reduce_problem`, the DP vertex loop,
the resilient ladder, `execute_search`) bump as they run:

* `Counter` — monotone totals (``dp_cells_total``, ``table_cache_hits_total``)
* `Gauge` — last-written values (``dp_cells_per_second``)
* `Histogram` — bucketed latency distributions (``checkpoint_poll_seconds``)

Exports land either as JSON (``to_json``) or Prometheus text exposition
format (``to_prometheus``, ``pase_`` prefix); ``dump(path)`` picks the
format from the extension (``.prom``/``.txt`` → Prometheus, anything
else → JSON) and writes through `atomic_write_text` (temp file, fsync,
``os.replace``) so a crash never leaves a half-written export.

Counters and gauges optionally carry **labels** (Prometheus dimension
sets): ``metrics.counter("serve_requests_total", labels={"code": "200"})``
registers one instrument per label combination under a shared family, so
the server can count requests by status without minting a metric name
per code.  Histograms stay label-free (their ``le`` buckets are already
a label dimension).

The default everywhere is `NULL_METRICS`, whose instruments are shared
no-ops — the hot path pays one attribute lookup per bump, nothing more.
"""

from __future__ import annotations

import json
import math
import os
import re
import tempfile
from typing import Any, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Metrics",
    "NullMetrics",
    "NULL_METRICS",
    "DEFAULT_BUCKETS",
    "atomic_write_text",
]

#: Default histogram buckets, tuned for checkpoint-poll / per-vertex
#: latencies: 1 microsecond up to 1 second, one decade per pair.
DEFAULT_BUCKETS = (1e-6, 5e-6, 1e-5, 5e-5, 1e-4, 5e-4,
                   1e-3, 5e-3, 1e-2, 5e-2, 1e-1, 5e-1, 1.0)

_NAME_RE = re.compile(r"^[a-z_][a-z0-9_]*$")

#: Label values are kept simple on purpose: no quotes, backslashes, or
#: newlines means the Prometheus exposition needs no escaping logic.
_LABEL_VALUE_RE = re.compile(r"^[A-Za-z0-9_.:/@ -]*$")


def _label_key(labels: "dict[str, str] | None") -> str:
    """Canonical ``{k="v",...}`` suffix (sorted); empty for no labels."""
    if not labels:
        return ""
    parts = []
    for key in sorted(labels):
        value = str(labels[key])
        if not _NAME_RE.match(key):
            raise ValueError(f"invalid label name {key!r} "
                             "(want [a-z_][a-z0-9_]*)")
        if not _LABEL_VALUE_RE.match(value):
            raise ValueError(f"invalid label value {value!r} for {key!r}")
        parts.append(f'{key}="{value}"')
    return "{" + ",".join(parts) + "}"


def atomic_write_text(path: "str | os.PathLike", text: str) -> None:
    """Write ``text`` to ``path`` atomically (temp file, fsync,
    ``os.replace``).

    Readers see either the old file or the complete new one.  The one
    text-snapshot writer: run journals, the fleet manifest, worker
    reports, fleet reports, the serve stores and metric exports.
    """
    path = os.fspath(path)
    parent = os.path.dirname(path) or "."
    os.makedirs(parent, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=parent, prefix=".atomic-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


class Counter:
    """Monotonically increasing total."""

    kind = "counter"
    __slots__ = ("name", "help", "value", "labels")

    def __init__(self, name: str, help: str = "",
                 labels: "dict[str, str] | None" = None) -> None:
        self.name = name
        self.help = help
        self.value = 0.0
        self.labels = dict(labels) if labels else None

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name}: negative increment")
        self.value += amount

    def snapshot(self) -> float:
        return self.value


class Gauge:
    """Last-written value."""

    kind = "gauge"
    __slots__ = ("name", "help", "value", "labels")

    def __init__(self, name: str, help: str = "",
                 labels: "dict[str, str] | None" = None) -> None:
        self.name = name
        self.help = help
        self.value = 0.0
        self.labels = dict(labels) if labels else None

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def snapshot(self) -> float:
        return self.value


class Histogram:
    """Cumulative-bucket histogram (Prometheus semantics).

    ``buckets`` are upper bounds; an implicit ``+Inf`` bucket catches the
    rest.  ``observe`` is O(len(buckets)) linear scan — fine for the
    ~dozen default buckets and the poll-frequency call rates here.
    """

    kind = "histogram"
    labels = None  # histograms stay label-free (``le`` is their dimension)
    __slots__ = ("name", "help", "buckets", "counts", "sum", "count")

    def __init__(self, name: str, help: str = "",
                 buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError(f"histogram {name}: needs at least one bucket")
        self.name = name
        self.help = help
        self.buckets = bounds
        self.counts = [0] * (len(bounds) + 1)  # +1 for +Inf
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        value = float(value)
        self.sum += value
        self.count += 1
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[i] += 1
                return
        self.counts[-1] += 1

    def snapshot(self) -> dict[str, Any]:
        cumulative = []
        running = 0
        for c in self.counts:
            running += c
            cumulative.append(running)
        return {
            "buckets": {("+Inf" if math.isinf(b) else repr(b)): n
                        for b, n in zip(self.buckets + (math.inf,),
                                        cumulative)},
            "sum": self.sum,
            "count": self.count,
        }


class Metrics:
    """Get-or-create registry of named instruments.

    Names must match ``[a-z_][a-z0-9_]*`` (they become Prometheus metric
    names under the ``pase_`` prefix).  Re-requesting a name returns the
    existing instrument; requesting it as a different kind raises.
    """

    enabled = True

    def __init__(self) -> None:
        self._instruments: dict[str, Any] = {}

    def _get(self, cls, name: str, help: str,
             labels: "dict[str, str] | None" = None, **kwargs):
        key = name + _label_key(labels)
        inst = self._instruments.get(key)
        if inst is not None:
            if not isinstance(inst, cls):
                raise ValueError(
                    f"metric {key!r} already registered as {inst.kind}, "
                    f"requested as {cls.kind}")
            return inst
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r} "
                             "(want [a-z_][a-z0-9_]*)")
        if labels:
            kwargs["labels"] = labels
        inst = cls(name, help, **kwargs)
        self._instruments[key] = inst
        return inst

    def counter(self, name: str, help: str = "",
                labels: "dict[str, str] | None" = None) -> Counter:
        return self._get(Counter, name, help, labels=labels)

    def gauge(self, name: str, help: str = "",
              labels: "dict[str, str] | None" = None) -> Gauge:
        return self._get(Gauge, name, help, labels=labels)

    def histogram(self, name: str, help: str = "",
                  buckets: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        return self._get(Histogram, name, help, buckets=buckets)

    def __iter__(self):
        return iter(sorted(self._instruments.values(),
                           key=lambda i: (i.name, _label_key(i.labels))))

    def __len__(self) -> int:
        return len(self._instruments)

    # -- exporters -----------------------------------------------------------

    def to_json(self) -> str:
        doc = {inst.name + _label_key(inst.labels):
               {"kind": inst.kind, "help": inst.help,
                "value": inst.snapshot()}
               for inst in self}
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def to_prometheus(self, prefix: str = "pase_") -> str:
        lines: list[str] = []
        described: set[str] = set()
        for inst in self:
            full = prefix + inst.name
            if full not in described:
                # HELP/TYPE announce the *family* once; labelled
                # siblings then contribute sample lines only.
                described.add(full)
                if inst.help:
                    lines.append(f"# HELP {full} {inst.help}")
                lines.append(f"# TYPE {full} {inst.kind}")
            if inst.labels:
                lines.append(
                    f"{full}{_label_key(inst.labels)} "
                    f"{inst.snapshot()!r}")
                continue
            if inst.kind == "histogram":
                running = 0
                for bound, n in zip(inst.buckets, inst.counts):
                    running += n
                    lines.append(f'{full}_bucket{{le="{bound!r}"}} {running}')
                running += inst.counts[-1]
                lines.append(f'{full}_bucket{{le="+Inf"}} {running}')
                lines.append(f"{full}_sum {inst.sum!r}")
                lines.append(f"{full}_count {inst.count}")
            else:
                value = inst.snapshot()
                text = repr(value) if isinstance(value, float) else str(value)
                lines.append(f"{full} {text}")
        return "\n".join(lines) + "\n" if lines else ""

    def dump(self, path: "str | os.PathLike") -> None:
        """Atomically export to ``path``; format chosen by extension."""
        ext = os.path.splitext(os.fspath(path))[1].lower()
        if ext in (".prom", ".txt"):
            atomic_write_text(path, self.to_prometheus())
        else:
            atomic_write_text(path, self.to_json())


class _NullInstrument:
    """Shared stand-in for every instrument kind: all bumps are no-ops."""

    __slots__ = ()
    name = "null"
    help = ""
    kind = "null"
    labels = None

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def snapshot(self) -> float:
        return 0.0


_NULL_INSTRUMENT = _NullInstrument()


class NullMetrics:
    """Default no-op registry; duck-type compatible with `Metrics`."""

    enabled = False

    def counter(self, name: str, help: str = "",
                labels: "dict[str, str] | None" = None) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name: str, help: str = "",
              labels: "dict[str, str] | None" = None) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(self, name: str, help: str = "",
                  buckets: Sequence[float] = DEFAULT_BUCKETS) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def __iter__(self):
        return iter(())

    def __len__(self) -> int:
        return 0

    def to_json(self) -> str:
        return "{}\n"

    def to_prometheus(self, prefix: str = "pase_") -> str:
        return ""

    def dump(self, path: "str | os.PathLike") -> None:
        pass


#: The process-wide default registry (see module docstring).
NULL_METRICS = NullMetrics()
