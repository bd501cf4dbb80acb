"""Declarative sweep specifications for fleet runs.

A `SweepSpec` describes a grid of strategy searches — models × machines
× device counts × fault plans × search flags — exactly the evaluation
shape of the paper (Tables I/II, Fig. 6) and of the ROADMAP's
"thousands of scenarios" north star.  The spec is data, not code: a JSON
file (or dict) that expands deterministically into a list of
`SweepTask`\\ s, each of which is one journalled `execute_search` (plus
an optional fault-injected simulation of the found strategy).

This module is the one schema of a search task.  :func:`task_problems`
checks a task document — names and JSON types first, with no coercion
(``"4"``, ``4.0`` and ``true`` are not a ``p``), then values — and
returns every problem it finds; `SweepTask.from_dict` raises them all
at once, for grid cells and explicit ``tasks`` alike.  ``pase serve``
checks its requests with the same functions (`repro.serve.wire`).

Determinism is the load-bearing property:

* :meth:`SweepSpec.expand` always yields tasks in the same order for the
  same spec, so a resumed fleet merges results in the same order as an
  uninterrupted one;
* :attr:`SweepTask.task_id` is a content hash of everything the task's
  *answer* depends on, so the fleet manifest can recognise completed
  work across supervisor crashes, and two sweeps never confuse tasks;
* :meth:`SweepSpec.fingerprint` hashes the whole spec, so ``--resume``
  against an edited spec fails loudly instead of silently answering a
  different question (same discipline as `SearchJournal`).

The optional per-task ``chaos`` field is a *test hook*: it makes the
worker misbehave (die, raise, hang) on its first N attempts so the
chaos suite and CI can exercise retry, quarantine, and straggler
handling against real process deaths.  Production specs leave it unset;
it is deliberately excluded from nothing — it participates in the task
id like any other field, because a chaos task is a different task.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
from dataclasses import MISSING, asdict, dataclass, field
from typing import Any, Iterator, Mapping

from ..core.exceptions import PaseError

__all__ = ["SweepSpec", "SweepTask", "SweepSpecError", "SPEC_VERSION",
           "task_problems", "task_type_problems"]

#: Spec schema version; bump when the expansion rule or task fields change
#: (a resume across versions must fail loudly).
SPEC_VERSION = 1

#: The JSON types each `SweepTask` field accepts (the first one names it
#: in messages).  ``bool`` never passes as ``int``, ``null`` passes only
#: where the field's default is None, and a string ``reduce`` must be a
#: spelling `repro.core.dp` accepts.
_FIELD_TYPES: dict[str, tuple[type, ...]] = {
    "model": (str,), "machine": (str,), "p": (int,), "mode": (str,),
    "method": (str,), "seed": (int,), "reduce": (bool, str),
    "objective": (str,), "resilient": (bool,), "memory_budget": (int,),
    "faults": (dict,), "faults_name": (str,), "chaos": (dict,),
}


class SweepSpecError(PaseError):
    """A sweep spec that cannot be expanded into tasks."""


@dataclass(frozen=True)
class SweepTask:
    """One (model, machine, p, faults, flags) cell of a sweep.

    ``faults`` is an optional `FaultPlan` dict applied when simulating
    the found strategy; ``chaos`` is the test-only misbehaviour hook
    (``{"kind": "exit"|"raise"|"hang", "attempts": N, ...}``).
    """

    model: str
    machine: str = "1080ti"
    p: int = 8
    mode: str = "pow2"
    method: str = "ours"
    seed: int = 0
    reduce: bool = False
    objective: str = "cost"
    resilient: bool = False
    memory_budget: int | None = None
    faults: Mapping[str, Any] | None = None
    faults_name: str | None = None
    chaos: Mapping[str, Any] | None = None

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready canonical description (drives the task id)."""
        out = asdict(self)
        if out["objective"] == "cost":
            # Omitted when default so every pre-frontier task keeps its
            # task id (journal directories and manifest slots are keyed
            # on it — resumes of existing sweeps must not churn).
            del out["objective"]
        if out["faults"] is not None:
            out["faults"] = json.loads(json.dumps(out["faults"],
                                                  sort_keys=True))
        if out["chaos"] is not None:
            out["chaos"] = json.loads(json.dumps(out["chaos"],
                                                 sort_keys=True))
        return out

    @property
    def task_id(self) -> str:
        """Stable content hash of the task (short, filesystem-safe)."""
        payload = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    @property
    def label(self) -> str:
        """Human-readable one-liner for logs and reports."""
        bits = [self.model, self.machine, f"p{self.p}", self.method,
                f"seed{self.seed}"]
        if self.mode != "pow2":
            bits.append(self.mode)
        if self.reduce:
            bits.append("reduce")
        if self.objective != "cost":
            bits.append(self.objective)
        if self.resilient:
            bits.append("resilient")
        if self.faults_name:
            bits.append(f"faults={self.faults_name}")
        return "/".join(bits)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SweepTask":
        """The task a JSON document describes.

        Raises `SweepSpecError` listing every `task_problems` entry, and
        `FaultPlanError` for a fault plan the task's ``p`` cannot run.
        """
        if not isinstance(data, Mapping):
            raise SweepSpecError(f"a task must be an object, got {data!r}")
        problems = task_problems(data)
        if problems:
            raise SweepSpecError("invalid task: " + "; ".join(
                f"{q['field']}: {q['message']}" for q in problems))
        task = cls(**data)
        if task.faults is not None:
            from ..resilience import FaultPlan

            FaultPlan.from_dict(dict(task.faults)).validate(task.p)
        return task


def task_type_problems(doc: Mapping[str, Any]) -> list[dict[str, str]]:
    """The problems with a task document's field names and JSON types."""
    from ..core.dp import _resolve_reduce_mode

    fields = SweepTask.__dataclass_fields__
    out = [{"field": name, "message": "unknown field"}
           for name in sorted(set(doc) - set(_FIELD_TYPES))]
    for name, types in _FIELD_TYPES.items():
        default = fields[name].default
        if name not in doc:
            if default is MISSING:
                out.append({"field": name, "message": "required"})
            continue
        val = doc[name]
        if val is None and default is None:
            continue
        if (isinstance(val, bool) and bool not in types) \
                or not isinstance(val, types):
            out.append({"field": name,
                        "message": f"expected {types[0].__name__}"})
        elif name == "reduce":
            try:
                _resolve_reduce_mode(val)
            except ValueError:
                out.append({"field": name, "message": "expected a bool or "
                            "one of off/never/auto/always"})
    return out


def task_problems(doc: Mapping[str, Any]) -> list[dict[str, str]]:
    """Every problem with a task document, each ``{"field", "message"}``.

    The value checks compare and look values up, so they run only once
    `task_type_problems` finds nothing: a non-empty result holds either
    type problems or value problems, never both.
    """
    out = task_type_problems(doc)
    if out:
        return out
    from ..core.configs import MODES
    from ..core.frontier import parse_objective
    from ..core.machine import MACHINES
    from ..experiments.common import METHODS
    from ..models import BENCHMARKS

    task = SweepTask(**doc)

    def bad(name: str, message: str) -> None:
        out.append({"field": name, "message": message})

    if task.model not in BENCHMARKS:
        bad("model", f"unknown model {task.model!r}; expected one of "
            f"{sorted(BENCHMARKS)}")
    if task.machine not in MACHINES:
        bad("machine", f"unknown machine {task.machine!r}; expected one of "
            f"{sorted(MACHINES)}")
    if task.p < 1:
        bad("p", f"p={task.p} must be >= 1")
    if task.mode not in MODES:
        bad("mode", f"unknown mode {task.mode!r}; expected one of {MODES}")
    if task.method not in METHODS:
        bad("method", f"unknown method {task.method!r}; expected one of "
            f"{sorted(METHODS)}")
    if task.memory_budget is not None and task.memory_budget <= 0:
        bad("memory_budget",
            f"memory_budget={task.memory_budget} must be positive")
    try:
        if parse_objective(task.objective).is_frontier \
                and task.method != "ours":
            bad("objective", f"objective {task.objective!r} requires "
                f"method 'ours', got {task.method!r}")
    except ValueError as err:
        bad("objective", str(err))
    if task.chaos is not None \
            and task.chaos.get("kind") not in ("exit", "raise", "hang"):
        bad("chaos", f"chaos kind {task.chaos.get('kind')!r} must be "
            "exit/raise/hang")
    return out


#: `SweepSpec` fields that hold a JSON array: the grid axes, then the
#: fault plans and the explicit tasks.
_LIST_FIELDS = ("models", "machines", "ps", "modes", "methods", "seeds",
                "reduce", "objectives", "resilient", "fault_plans", "tasks")


@dataclass(frozen=True)
class SweepSpec:
    """A grid of `SweepTask`\\ s plus explicit extras.

    Axis fields are cross-multiplied in the field order below; the
    ``tasks`` list appends hand-written tasks (each a `SweepTask` dict)
    after the grid.  ``fault_plans`` entries are either ``None`` (no
    faults) or ``{"name": ..., "plan": {FaultPlan dict}}``.
    """

    models: tuple[str, ...] = ()
    machines: tuple[str, ...] = ("1080ti",)
    ps: tuple[int, ...] = (8,)
    modes: tuple[str, ...] = ("pow2",)
    methods: tuple[str, ...] = ("ours",)
    seeds: tuple[int, ...] = (0,)
    reduce: tuple[bool | str, ...] = (False,)
    objectives: tuple[str, ...] = ("cost",)
    resilient: tuple[bool, ...] = (False,)
    memory_budget: int | None = None
    fault_plans: tuple[Any, ...] = (None,)
    tasks: tuple[Mapping[str, Any], ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        for name in _LIST_FIELDS:
            object.__setattr__(self, name, tuple(getattr(self, name)))

    # -- construction --------------------------------------------------------

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SweepSpec":
        data = dict(data)
        version = data.pop("version", SPEC_VERSION)
        if version != SPEC_VERSION:
            raise SweepSpecError(
                f"sweep spec version {version!r} unsupported "
                f"(expected {SPEC_VERSION})")
        unknown = set(data) - {f for f in cls.__dataclass_fields__}
        if unknown:
            raise SweepSpecError(
                f"sweep spec has unknown field(s) {sorted(unknown)}")
        # A string axis would expand one task per character.
        not_lists = [name for name in _LIST_FIELDS
                     if name in data and not isinstance(data[name], list)]
        if not_lists:
            raise SweepSpecError("invalid sweep spec: " + "; ".join(
                f"{name}: expected a list" for name in not_lists))
        return cls(**data)

    @classmethod
    def from_file(cls, path: str | os.PathLike) -> "SweepSpec":
        try:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as err:
            raise SweepSpecError(
                f"cannot read sweep spec {os.fspath(path)!r}: {err}") \
                from None
        except json.JSONDecodeError as err:
            raise SweepSpecError(
                f"sweep spec {os.fspath(path)!r} is not valid JSON: "
                f"{err}") from None
        if not isinstance(data, dict):
            raise SweepSpecError("sweep spec JSON must be an object")
        return cls.from_dict(data)

    def to_dict(self) -> dict[str, Any]:
        out = asdict(self)
        if out["objectives"] == ["cost"] or out["objectives"] == ("cost",):
            # Default axis is omitted: the spec fingerprint — and with it
            # ``--resume`` of pre-frontier sweeps — must not churn.
            del out["objectives"]
        out["version"] = SPEC_VERSION
        return json.loads(json.dumps(out, sort_keys=True))

    def fingerprint(self) -> str:
        """Content hash of the whole spec (guards ``--resume``)."""
        payload = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()

    # -- expansion -----------------------------------------------------------

    def _grid(self) -> Iterator[SweepTask]:
        for (model, machine, p, mode, method, seed, red, obj, res,
             plan) in itertools.product(
                self.models, self.machines, self.ps, self.modes,
                self.methods, self.seeds, self.reduce, self.objectives,
                self.resilient, self.fault_plans):
            doc = {"model": model, "machine": machine, "p": p, "mode": mode,
                   "method": method, "seed": seed, "reduce": red,
                   "objective": obj, "resilient": res,
                   "memory_budget": self.memory_budget}
            if plan is not None:
                if not isinstance(plan, Mapping) or "plan" not in plan:
                    raise SweepSpecError(
                        "fault_plans entries must be null or "
                        '{"name": ..., "plan": {...}} objects')
                doc["faults"] = plan["plan"]
                doc["faults_name"] = plan.get("name", "faults")
            yield SweepTask.from_dict(doc)

    def expand(self) -> list[SweepTask]:
        """The sweep's tasks, validated, in deterministic order.

        Grid tasks come first (axis cross-product in field order), then
        the explicit ``tasks`` extras.  Duplicate task ids are an error:
        two identical tasks would race for one journal directory and
        one manifest slot.
        """
        out = list(self._grid())
        out.extend(SweepTask.from_dict(t) for t in self.tasks)
        if not out:
            raise SweepSpecError("sweep spec expands to zero tasks")
        seen: dict[str, str] = {}
        for t in out:
            if t.task_id in seen:
                raise SweepSpecError(
                    f"duplicate task {t.label} (id {t.task_id}); every "
                    "sweep cell must be unique")
            seen[t.task_id] = t.label
        return out
