"""Bit-for-bit pins of the frontier objective's answers.

The fixture ``tests/core/pins/frontier.json`` was generated by
``tests/core/pins/regen.py``.  Per case it holds a sha256 over every
frontier point's ``(cost.hex(), peak_bytes.hex(), strategy indices)``,
plus the search's ``cells``, ``frontier_points`` and
``frontier_max_state_points`` stats.

The cases cover exact frontiers that stay multi-point (alexnet, rnnlm,
inception_v3 p=4) and eps-coarsened ones whose cells mostly hold one
point (inception_v3, transformer).  A refactor of the frontier DP must
leave every pin unchanged; a change that moves a point on purpose
regenerates the fixture and shows the diff.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro import api

PINS = Path(__file__).parent / "pins"

#: (model, p, objective) of every pinned frontier search.
CASES = [("alexnet", 8, "frontier"), ("alexnet", 16, "frontier"),
         ("rnnlm", 16, "frontier"), ("rnnlm", 64, "frontier"),
         ("inception_v3", 4, "frontier"),
         ("inception_v3", 4, "frontier:eps=0.2"),
         ("transformer", 4, "frontier:eps=0.1"),
         ("transformer", 8, "frontier:eps=1"),
         ("transformer", 16, "frontier:eps=0.5")]

#: The pinned search counters.
STATS = ("cells", "frontier_points", "frontier_max_state_points")


def case_key(model: str, p: int, objective: str) -> str:
    return f"{model}/{p}/{objective}"


def frontier_pin(problem: api.Problem, result) -> dict:
    """The pinned view of one frontier search result."""
    h = hashlib.sha256()
    for pt in result.frontier:
        indices = sorted(pt.strategy.to_indices(problem.space).items())
        h.update(repr((pt.cost.hex(), pt.peak_bytes.hex(),
                       indices)).encode())
        h.update(b"\n")
    pin = {"points_sha256": h.hexdigest()}
    pin.update({key: result.stats[key] for key in STATS})
    return pin


def run_case(model: str, p: int, objective: str) -> dict:
    problem = api.Problem.from_benchmark(model, p)
    result = api.search(problem, objective=objective).result
    return frontier_pin(problem, result)


@pytest.fixture(scope="module")
def pins():
    return json.loads((PINS / "frontier.json").read_text())


@pytest.mark.parametrize("model,p,objective", CASES,
                         ids=[case_key(*c) for c in CASES])
def test_bit_identical(pins, model, p, objective):
    assert run_case(model, p, objective) == pins[case_key(model, p,
                                                          objective)]
