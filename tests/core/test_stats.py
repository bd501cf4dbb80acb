"""The frozen SearchResult.stats key schema."""

from __future__ import annotations

import pytest

from repro.core import STATS_KEYS, STATS_KEY_PREFIXES, validate_stats_keys
from repro.core.strategy import SearchResult, Strategy


def test_every_registered_key_validates():
    validate_stats_keys(STATS_KEYS)  # the whole registry at once


def test_prefixed_keys_validate():
    validate_stats_keys(["table_seconds_build", "reduction_rounds",
                         "frontier_points", "frontier_eps",
                         "frontier_cells"])
    assert set(STATS_KEY_PREFIXES) == {"table_", "reduction_", "frontier_"}


def test_unknown_key_raises_with_name():
    with pytest.raises(ValueError, match="celsl"):
        validate_stats_keys(["cells", "celsl"])


def test_with_stats_enforces_schema():
    res = SearchResult(strategy=Strategy({}), cost=1.0, elapsed=0.0,
                       method="ours")
    merged = res.with_stats(cells=10, table_seconds_build=0.5)
    assert merged.stats == {"cells": 10, "table_seconds_build": 0.5}
    assert res.stats == {}  # original untouched
    with pytest.raises(ValueError, match="frozen"):
        res.with_stats(cellz=10)


def test_descriptions_are_non_empty():
    assert all(STATS_KEYS.values())
    assert all(STATS_KEY_PREFIXES.values())
