"""Experiment reports."""

from repro.analysis.report import ExperimentReport


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
