"""Declarative fault plans and their injection into the step scheduler.

Production clusters are not the fault-free machines the paper's search
assumes: devices fail-stop mid-step, thermal throttling turns a GPU into
a straggler, a flaky NIC halves a link's bandwidth, and collectives time
out and retry.  A `FaultPlan` describes such conditions declaratively;
a `FaultInjector` built from a (resolved) plan perturbs the
list-scheduler's task commitments:

* **fail-stop** — a device disappears at time *t* for ``downtime``
  seconds.  A task caught mid-flight on that device loses its partial
  work and re-executes from scratch once the device returns (the
  standard redo model of fail-stop recovery);
* **stragglers** — compute tasks on a slow device take ``slowdown``
  times longer;
* **link degradation** — NIC tasks (transfers, collective steps) through
  a degraded endpoint take ``factor`` times longer;
* **transient collective failures** — each collective task fails with a
  seeded per-attempt probability and pays backoff plus full
  re-execution per retry (NCCL-style timeout/retry behavior).

Plans serialize to/from JSON for ``pase simulate --faults plan.json``.
Times can be absolute seconds or, with ``relative_times``, fractions of
the fault-free makespan — convenient for "kill device 1 mid-step"
experiments that should not depend on the model's absolute step time.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, asdict, dataclass, fields, replace

import numpy as np

from ..core.exceptions import FaultPlanError

__all__ = ["DeviceFailure", "Straggler", "LinkDegradation",
           "TransientFaults", "FaultPlan", "FaultEvent", "FaultInjector"]

#: Task kinds that run on a device's compute stream (straggler-affected).
COMPUTE_KINDS = frozenset({"fwd", "bwd", "update"})

#: Task kinds that are collective synchronizations (transient-affected).
COLLECTIVE_KINDS = frozenset({"reduce", "gradsync"})


@dataclass(frozen=True)
class DeviceFailure:
    """Fail-stop loss of one device at ``time``, back after ``downtime``.

    With ``FaultPlan.relative_times`` both fields are fractions of the
    fault-free makespan, otherwise seconds.  ``downtime`` must be finite:
    permanent loss is modelled by elastic re-planning on the survivor
    set (`repro.resilience.replan`), not by an unbounded stall.
    """

    device: int
    time: float
    downtime: float = 0.5


@dataclass(frozen=True)
class Straggler:
    """A device whose compute runs ``slowdown`` (>= 1) times slower."""

    device: int
    slowdown: float


@dataclass(frozen=True)
class LinkDegradation:
    """A device whose NIC paths run ``factor`` (>= 1) times slower."""

    device: int
    factor: float


@dataclass(frozen=True)
class TransientFaults:
    """Seeded random collective failures with retry/backoff cost.

    Each collective task independently fails with ``probability`` per
    attempt, up to ``max_retries`` times; each failed attempt costs the
    task's full duration again plus ``backoff`` seconds.
    """

    probability: float
    backoff: float = 1e-3
    max_retries: int = 3
    seed: int = 0


@dataclass(frozen=True)
class FaultPlan:
    """A declarative set of fault conditions for one simulated step."""

    device_failures: tuple[DeviceFailure, ...] = ()
    stragglers: tuple[Straggler, ...] = ()
    link_degradations: tuple[LinkDegradation, ...] = ()
    transients: TransientFaults | None = None
    relative_times: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "device_failures", tuple(self.device_failures))
        object.__setattr__(self, "stragglers", tuple(self.stragglers))
        object.__setattr__(self, "link_degradations",
                           tuple(self.link_degradations))

    def is_empty(self) -> bool:
        return not (self.device_failures or self.stragglers
                    or self.link_degradations or self.transients)

    def failed_devices(self) -> tuple[int, ...]:
        """Devices that suffer a fail-stop somewhere in the plan."""
        return tuple(sorted({f.device for f in self.device_failures}))

    def validate(self, p: int) -> None:
        for f in self.device_failures:
            if not 0 <= f.device < p:
                raise FaultPlanError(
                    f"fail-stop device {f.device} outside 0..{p - 1}")
            if not (math.isfinite(f.time) and f.time >= 0):
                raise FaultPlanError(
                    f"fail-stop time {f.time} must be finite and >= 0")
            if not (f.downtime > 0 and math.isfinite(f.downtime)):
                raise FaultPlanError(
                    f"fail-stop downtime {f.downtime} must be finite and "
                    f"positive (model permanent loss via elastic re-planning)")
        for s in self.stragglers:
            if not 0 <= s.device < p:
                raise FaultPlanError(
                    f"straggler device {s.device} outside 0..{p - 1}")
            if not (math.isfinite(s.slowdown) and s.slowdown >= 1.0):
                raise FaultPlanError(
                    f"straggler slowdown {s.slowdown} must be finite and "
                    ">= 1 (use 1 for none)")
        for l in self.link_degradations:
            if not 0 <= l.device < p:
                raise FaultPlanError(
                    f"link-degradation device {l.device} outside 0..{p - 1}")
            if not (math.isfinite(l.factor) and l.factor >= 1.0):
                raise FaultPlanError(
                    f"link-degradation factor {l.factor} must be finite and "
                    ">= 1 (use 1 for none)")
        t = self.transients
        if t is not None:
            if not 0.0 <= t.probability < 1.0:
                raise FaultPlanError(
                    f"transient probability {t.probability} outside [0, 1)")
            if not (math.isfinite(t.backoff) and t.backoff >= 0) \
                    or t.max_retries < 0:
                raise FaultPlanError(
                    "transient backoff must be finite and >= 0, and "
                    "max_retries >= 0")

    def resolve(self, makespan: float) -> "FaultPlan":
        """Convert relative fail-stop times to absolute seconds."""
        if not self.relative_times:
            return self
        if makespan <= 0:
            raise FaultPlanError(
                "cannot resolve relative fault times against a non-positive "
                "makespan")
        failures = tuple(
            replace(f, time=f.time * makespan, downtime=f.downtime * makespan)
            for f in self.device_failures)
        return replace(self, device_failures=failures, relative_times=False)

    # -- (de)serialization --------------------------------------------------

    def to_json(self) -> str:
        out = asdict(self)
        return json.dumps(out, indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        """The plan a JSON document describes.

        Every field name and JSON type is checked, at the top level and
        in every entry, with no coercion: a JSON bool is never a number
        and a float is never a device.  Raises one `FaultPlanError`
        listing every problem.
        """
        problems = [f"{name}: unknown field" for name in sorted(
            set(data) - {*_ENTRY_LISTS, "transients", "relative_times"})]
        for name, entry_cls in _ENTRY_LISTS.items():
            entries = data.get(name, [])
            if not isinstance(entries, list):
                problems.append(f"{name}: expected an array")
                continue
            for i, entry in enumerate(entries):
                problems += _entry_problems(f"{name}[{i}]", entry, entry_cls)
        t = data.get("transients")
        if t is not None:
            problems += _entry_problems("transients", t, TransientFaults)
        if not isinstance(data.get("relative_times", False), bool):
            problems.append("relative_times: expected a bool")
        if problems:
            raise FaultPlanError("invalid fault plan: " + "; ".join(problems))
        return cls(**{name: tuple(entry_cls(**d) for d in data.get(name, ()))
                      for name, entry_cls in _ENTRY_LISTS.items()},
                   transients=None if t is None else TransientFaults(**t),
                   relative_times=data.get("relative_times", False))

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as err:
            raise FaultPlanError(f"fault plan is not valid JSON: {err}") from None
        if not isinstance(data, dict):
            raise FaultPlanError("fault plan JSON must be an object")
        return cls.from_dict(data)

    @classmethod
    def from_file(cls, path: str) -> "FaultPlan":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                return cls.from_json(fh.read())
        except OSError as err:
            raise FaultPlanError(f"cannot read fault plan {path!r}: {err}") \
                from None


#: The plan fields that hold a list of entries, and each entry's type.
_ENTRY_LISTS = {"device_failures": DeviceFailure, "stragglers": Straggler,
                "link_degradations": LinkDegradation}

#: The JSON types an entry field of each annotation accepts, and their
#: name in messages.
_JSON_TYPES = {"int": ((int,), "an int"), "float": ((int, float), "a number")}


def _entry_problems(where: str, entry, entry_cls: type) -> list[str]:
    """The problems with one plan entry's field names and JSON types."""
    if not isinstance(entry, dict):
        return [f"{where}: expected an object"]
    known = {f.name: f for f in fields(entry_cls)}
    out = [f"{where}.{name}: unknown field"
           for name in sorted(set(entry) - set(known))]
    for name, f in known.items():
        if name not in entry:
            if f.default is MISSING:
                out.append(f"{where}.{name}: required")
            continue
        types, noun = _JSON_TYPES[f.type]
        val = entry[name]
        if isinstance(val, bool) or not isinstance(val, types):
            out.append(f"{where}.{name}: expected {noun}")
    return out


@dataclass(frozen=True)
class FaultEvent:
    """One perturbation the injector applied to a scheduled task."""

    fault: str       # "failstop" | "straggler" | "link" | "transient"
    task: str        # task label
    device: int
    delay: float     # seconds added to the task's completion

    def describe(self) -> str:
        return (f"{self.fault:10s} dev{self.device} "
                f"+{self.delay * 1e3:.3f} ms  {self.task}")


class FaultInjector:
    """Applies a resolved `FaultPlan` to list-scheduler commitments.

    The scheduler calls :meth:`apply` once per task right before
    committing it; the injector returns the perturbed ``(start,
    duration)`` and records every perturbation in :attr:`events`.
    Transient-failure draws use a private seeded generator, so a given
    (task graph, plan) pair perturbs identically run-to-run.
    """

    def __init__(self, plan: FaultPlan, p: int) -> None:
        if plan.relative_times:
            raise FaultPlanError(
                "FaultInjector needs absolute times; call plan.resolve() first")
        plan.validate(p)
        self.plan = plan
        self._slow = {s.device: s.slowdown for s in plan.stragglers}
        self._link = {l.device: l.factor for l in plan.link_degradations}
        self._windows: dict[int, list[tuple[float, float]]] = {}
        for f in plan.device_failures:
            self._windows.setdefault(f.device, []).append(
                (f.time, f.time + f.downtime))
        for wins in self._windows.values():
            wins.sort()
        self._rng = (np.random.default_rng(plan.transients.seed)
                     if plan.transients is not None else None)
        self.events: list[FaultEvent] = []

    def apply(self, kind: str, label: str,
              resources: tuple[tuple[str, int], ...], start: float,
              duration: float) -> tuple[float, float]:
        """Perturb one commitment of the task ``kind``/``label`` on
        ``resources``; returns (start, duration)."""
        dur = duration
        # Straggler / degraded-link scaling (worst factor among resources).
        factor = 1.0
        slow_dev = -1
        for rk, dev in resources:
            f = (self._slow.get(dev, 1.0) if rk == "gpu"
                 else self._link.get(dev, 1.0))
            if f > factor:
                factor, slow_dev = f, dev
        if factor > 1.0 and dur > 0:
            self.events.append(FaultEvent(
                fault="straggler" if kind in COMPUTE_KINDS else "link",
                task=label, device=slow_dev,
                delay=dur * (factor - 1.0)))
            dur *= factor

        # Transient collective failures: retry with backoff, redo the work.
        t = self.plan.transients
        if t is not None and self._rng is not None and dur > 0 \
                and kind in COLLECTIVE_KINDS and t.probability > 0:
            retries = 0
            while retries < t.max_retries \
                    and self._rng.random() < t.probability:
                retries += 1
            if retries:
                extra = retries * (t.backoff + dur)
                self.events.append(FaultEvent(
                    fault="transient", task=label,
                    device=int(resources[0][1]), delay=extra))
                dur += extra

        # Fail-stop blackout windows: partial work is lost; the task
        # re-executes once every involved device is back.  Iterate to a
        # fixed point because pushing the start past one window can move
        # the task into another.
        moved = True
        while moved:
            moved = False
            for _, dev in resources:
                for t0, t1 in self._windows.get(dev, ()):
                    if start >= t1 or start + dur <= t0:
                        continue
                    self.events.append(FaultEvent(
                        fault="failstop", task=label, device=dev,
                        delay=t1 - start))
                    start = t1
                    moved = True
        return start, dur
