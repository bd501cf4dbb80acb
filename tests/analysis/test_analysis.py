"""Tests for graph statistics and report formatting."""

import pytest

from repro.analysis import (
    config_count_stats,
    degree_histogram,
    dependent_set_profile,
    format_bytes,
    format_frontier_plot,
    format_frontier_table,
    format_grid,
    format_speedup_table,
    format_table_build_stats,
    format_time,
    section_3c_report,
)
from repro.core.sequencer import breadth_first_seq, generate_seq
from repro.models import inception_v3, mlp
from tests.conftest import build_dag


class TestGraphStats:
    def test_degree_histogram(self, diamond):
        assert degree_histogram(diamond) == {2: 4}

    def test_config_count_stats(self):
        g = mlp(batch=16, hidden=(32,))
        s = config_count_stats(g, 8)
        assert s["k_min"] >= 1 and s["k_max"] >= s["k_median"] >= s["k_min"]

    def test_dependent_set_profile(self, diamond):
        prof = dependent_set_profile(diamond, generate_seq(diamond))
        assert prof["max"] >= 1 and prof["mean"] > 0

    def test_section_3c_inception(self):
        """The paper's Section III-C numbers: a few dense nodes, BF
        combinations astronomically above GENERATESEQ's."""
        rep = section_3c_report(inception_v3(), ps=(8,))
        assert rep["nodes_degree_ge_5"] == 12
        assert rep["nodes_degree_lt_5"] == rep["nodes"] - 12
        assert rep["generateseq_max_dependent"] <= 3
        assert rep["bf_combinations_bound"] > \
            1e6 * rep["generateseq_combinations_bound"]


class TestReporting:
    def test_format_time(self):
        assert format_time(None) == "OOM"
        assert format_time(0.234) == "0:00.234"
        assert format_time(75.5) == "1:15.500"

    def test_format_grid(self):
        text = format_grid(["a", "bb"], [[1, 2], [3, 4]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "a" in lines[0] and "-" in lines[1]

    def test_format_speedup_table(self):
        data = {"alexnet": {4: {"ours": 1.5, "expert": 1.2}}}
        text = format_speedup_table(data, ["expert", "ours"])
        assert "1.50x" in text and "1.20x" in text

    def test_format_table_build_stats(self):
        assert format_table_build_stats({}) == \
            "cost tables: no build statistics"
        serial = {"build_seconds": 0.5, "cache_hit": 0.0, "jobs": 1.0,
                  "cells": 2_000_000.0}
        assert format_table_build_stats(serial) == \
            "cost tables: 0.500s (serial, 2.00M cells)"
        par = dict(serial, jobs=4.0)
        assert "threads x4" in format_table_build_stats(par)
        hit = dict(serial, cache_hit=1.0)
        assert "cache hit" in format_table_build_stats(hit)

    def test_format_table_build_stats_prefixed(self):
        """Accepts SearchResult.stats' table_-prefixed keys too."""
        stats = {"table_build_seconds": 1.25, "table_cache_hit": 1.0,
                 "table_jobs": 1.0, "table_cells": 500_000.0}
        text = format_table_build_stats(stats)
        assert text == "cost tables: 1.250s (cache hit, 0.50M cells)"


class TestFrontierReporting:
    @staticmethod
    def point(cost, peak):
        from repro.core.strategy import FrontierPoint, Strategy

        return FrontierPoint(cost=cost, peak_bytes=peak,
                             strategy=Strategy({"n0": (1, 1, 1, 1, 1)}))

    def test_format_bytes(self):
        assert format_bytes(512) == "512 B"
        assert format_bytes(1536) == "1.50 KiB"
        assert format_bytes(1.5 * 1024 ** 3) == "1.50 GiB"

    def test_table_marks_min_cost_row(self):
        frontier = [self.point(1.0e9, 4096.0), self.point(2.0e9, 1024.0)]
        text = format_frontier_table(frontier)
        lines = text.splitlines()
        assert "min-cost" in lines[2] and "min-cost" not in lines[3]
        assert "4.00 KiB" in text and "1.00 KiB" in text

    def test_table_empty(self):
        assert format_frontier_table([]) == "frontier: empty"

    def test_plot_scatter_and_degenerate(self):
        frontier = [self.point(1.0e9, 4096.0), self.point(2.0e9, 1024.0)]
        plot = format_frontier_plot(frontier)
        assert "o" in plot and "*" in plot and "min-cost" in plot
        # A single point collapses to a one-line summary, not a plot.
        single = format_frontier_plot(frontier[:1])
        assert single.startswith("frontier: 1 point(s)")
        assert format_frontier_plot([]) == "frontier: empty"
