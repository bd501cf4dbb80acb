"""Table-build backend selection: ``jobs=`` parsing and resolution.

Every spelling resolves to the serial reference path or the thread
backend; removed spellings (``processes[:N]``) are rejected with the
list of accepted ones.
"""

import os

import pytest

from repro.core import costmodel
from repro.core.costmodel import CostModel, _parse_jobs
from repro.core.machine import GTX1080TI


class TestJobsParsing:
    @pytest.mark.parametrize("spec,expected", [
        (None, ("serial", 1)),
        ("serial", ("serial", 1)),
        (3, ("auto", 3)),
        ("auto:5", ("auto", 5)),
        ("threads:4", ("threads", 4)),
    ])
    def test_spellings(self, spec, expected):
        assert _parse_jobs(spec) == expected

    def test_zero_means_all_cores(self):
        mode, n = _parse_jobs(0)
        assert mode == "auto" and n == (os.cpu_count() or 1)
        mode, n = _parse_jobs("threads")
        assert mode == "threads" and n == (os.cpu_count() or 1)

    @pytest.mark.parametrize("bad", [
        -1, "turbo", "serial:2", "threads:x", "processes:-3", 2.5, True,
        "processes:2",
    ])
    def test_rejections(self, bad):
        with pytest.raises(ValueError):
            _parse_jobs(bad)


class TestBackendResolution:
    def model(self):
        return CostModel(GTX1080TI)

    def test_forced_backends_ignore_core_count(self, monkeypatch):
        monkeypatch.setattr(costmodel.os, "cpu_count", lambda: 1)
        cm = self.model()
        assert cm._resolve_backend("threads:4", 10, 100) == ("threads", 4)

    def test_forced_backend_capped_by_task_count(self):
        cm = self.model()
        assert cm._resolve_backend("threads:8", 10, 3) == ("threads", 3)
        assert cm._resolve_backend("threads:8", 10, 1) == ("serial", 1)

    def test_auto_small_work_stays_serial(self):
        cm = self.model()
        assert cm._resolve_backend(4, 10, 100) == ("serial", 1)

    def test_auto_picks_threads_above_old_process_threshold(
            self, monkeypatch):
        """Large builds stay on threads: the former 64 MiB result-bytes
        switch to a process pool is gone."""
        monkeypatch.setattr(costmodel.os, "cpu_count", lambda: 8)
        cm = self.model()
        old_threshold_cells = 64 * 1024 * 1024 // 8
        for cells in (costmodel.PARALLEL_THRESHOLD_CELLS,
                      old_threshold_cells, 10 * old_threshold_cells):
            assert cm._resolve_backend(4, cells, 100) == ("threads", 4)
        assert cm._resolve_backend(4, old_threshold_cells, 100) == \
            cm._resolve_backend("auto:4", old_threshold_cells, 100)

    def test_auto_single_core_is_serial(self, monkeypatch):
        monkeypatch.setattr(costmodel, "PARALLEL_THRESHOLD_CELLS", 0)
        monkeypatch.setattr(costmodel.os, "cpu_count", lambda: 1)
        cm = self.model()
        assert cm._resolve_backend(4, 10**9, 100) == ("serial", 1)
