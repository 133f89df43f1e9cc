"""The sanitizer's battery proof and the clean matrix's shape."""

import pytest

import repro.san.matrix
from repro.cli import main
from repro.san.matrix import (
    BATTERY,
    MATRIX_ENGINES,
    MATRIX_EXECUTORS,
    MATRIX_WORKLOADS,
    LegResult,
    battery_ok,
    matrix_legs,
    run_battery,
    run_matrix,
)
from repro.san.report import SanReport, detector_ids

pytestmark = pytest.mark.no_reprosan  # the battery installs its own sanitizers


class TestBattery:
    def test_battery_covers_every_detector(self):
        assert [detector for detector, _ in BATTERY] == list(detector_ids())

    def test_full_battery_every_detector_fires_exactly_once(self):
        results = run_battery()
        assert battery_ok(results), [
            (r.detector, r.fired, [v.id for v in r.report.violations])
            for r in results
            if not r.ok
        ]

    def test_fired_violations_carry_witnesses(self):
        for result in run_battery():
            (violation,) = result.report.violations
            assert violation.id == result.detector
            assert violation.witness, result.detector


class TestMatrixShape:
    def test_leg_enumeration_is_the_full_product(self):
        legs = matrix_legs()
        assert len(legs) == (
            len(MATRIX_WORKLOADS) * len(MATRIX_ENGINES) * len(MATRIX_EXECUTORS)
        )
        assert len(set(legs)) == len(legs)

    def test_matrix_covers_all_engines_and_executors(self):
        assert set(MATRIX_ENGINES) == {"hadoop", "hop", "onepass"}
        assert "serial" in MATRIX_EXECUTORS
        assert any(x.startswith("threads") for x in MATRIX_EXECUTORS)
        assert any(x.startswith("processes") for x in MATRIX_EXECUTORS)


class TestRaisingLeg:
    """A leg that raises fails alone: every one-pass leg raises here, as
    under a kernel that registers itself twice, and the rest still run."""

    MESSAGE = "kernel 'onepass_map' is already registered"

    @pytest.fixture
    def ran(self, monkeypatch):
        ran = []

        def leg(workload, engine, executor, **_):
            ran.append(f"{workload}/{engine}/{executor}")
            if engine == "onepass":
                raise ValueError(self.MESSAGE)
            return LegResult(ran[-1], "d", "d", SanReport())

        monkeypatch.setattr(repro.san.matrix, "run_leg", leg)
        return ran

    def test_the_matrix_records_the_exception_and_runs_every_leg(self, ran):
        results = run_matrix()
        assert ran == [r.leg for r in results] == ["/".join(leg) for leg in matrix_legs()]
        raised = [r for r in results if r.error is not None]
        assert [r.leg for r in raised] == [r.leg for r in results if "/onepass/" in r.leg]
        assert all(isinstance(r.error, ValueError) and not r.ok for r in raised)
        assert all(r.ok for r in results if r.error is None)

    def test_the_command_names_each_raised_leg_and_exits_nonzero(self, ran, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        assert main(["sanitize", "--matrix", "--baseline", str(baseline)]) == 1
        out, err = capsys.readouterr()
        legs = len(matrix_legs())
        assert f"FAIL page-frequency/onepass/threads:2: raised ValueError: {self.MESSAGE}" in out
        assert out.count(": raised ValueError: ") == legs // 3
        assert out.count("ok   ") == legs - legs // 3
        assert f"matrix: {legs // 3}/{legs} leg(s) failed" in err
        # A raised leg has no digest, so no baseline is written either.
        assert main(["sanitize", "--matrix", "--baseline", str(baseline), "--write-baseline"]) == 1
        assert not baseline.exists()
