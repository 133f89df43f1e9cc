"""CPU-split extraction and experiment reports."""

import pytest

from repro.analysis.compare import cpu_split
from repro.analysis.report import ExperimentReport
from repro.mapreduce.counters import C, Counters


class TestCpuSplit:
    def test_shares(self):
        c = Counters()
        c.inc(C.T_MAP_FN, 6.1)
        c.inc(C.T_SORT, 3.9)
        split = cpu_split(c, include_parse=False)
        assert split.map_fn_share == pytest.approx(0.61)
        assert split.sort_share == pytest.approx(0.39)
        assert split.total == pytest.approx(10.0)

    def test_parse_included_by_default(self):
        c = Counters()
        c.inc(C.T_MAP_FN, 1.0)
        c.inc(C.T_PARSE, 1.0)
        c.inc(C.T_SORT, 2.0)
        assert cpu_split(c).map_fn_seconds == pytest.approx(2.0)

    def test_empty_counters(self):
        split = cpu_split(Counters())
        assert split.map_fn_share == 0.0


class TestExperimentReport:
    def test_render_and_holds(self):
        report = ExperimentReport("T2", "CPU split", setup="sessionization")
        report.observe("sort share", "39%", "41%", holds=True)
        report.note("measured on the real engine")
        text = report.render()
        assert "T2" in text and "39%" in text and "41%" in text
        assert report.all_hold
        assert "ALL SHAPES HOLD" in text

    def test_failure_flagged(self):
        report = ExperimentReport("X", "t", setup="s")
        report.observe("m", "up", "down", holds=False)
        assert not report.all_hold
        assert "SHAPE MISMATCH" in report.render()
