"""The sanitizer's battery proof and the clean matrix's shape."""

import pytest

from repro.san.matrix import (
    BATTERY,
    MATRIX_ENGINES,
    MATRIX_EXECUTORS,
    MATRIX_WORKLOADS,
    battery_ok,
    matrix_legs,
    run_battery,
)
from repro.san.report import detector_ids

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
