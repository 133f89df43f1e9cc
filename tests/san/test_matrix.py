"""The cross-validation matrix: battery proofs and rule coverage."""

import pytest

from repro.lint.rules import ALL_RULES
from repro.san.matrix import (
    BATTERY,
    CROSS_VALIDATION,
    MATRIX_ENGINES,
    MATRIX_EXECUTORS,
    MATRIX_WORKLOADS,
    battery_ok,
    matrix_legs,
    run_battery,
)
from repro.san.report import DETECTORS, detector_ids

pytestmark = pytest.mark.no_reprosan  # the battery installs its own sanitizers


class TestCrossValidation:
    def test_every_mapped_static_rule_exists(self):
        static_ids = {rule.id for rule in ALL_RULES}
        for rep in CROSS_VALIDATION:
            assert rep in static_ids, rep

    def test_every_mapped_detector_exists(self):
        ids = set(detector_ids())
        for san in CROSS_VALIDATION.values():
            assert san in ids, san

    def test_detector_catalogue_agrees_with_matrix(self):
        # DETECTORS.static_rules must be the inverse of CROSS_VALIDATION.
        from_catalogue = {
            rep: d.id for d in DETECTORS for rep in d.static_rules
        }
        assert from_catalogue == CROSS_VALIDATION

    def test_battery_covers_every_mapping(self):
        assert {rule for rule, _, _ in BATTERY} == set(CROSS_VALIDATION)
        for rule, expected, _ in BATTERY:
            assert CROSS_VALIDATION[rule] == expected


class TestBattery:
    def test_full_battery_every_detector_fires_exactly_once(self):
        results = run_battery()
        assert battery_ok(results), [
            (r.rule, r.fired, [v.id for v in r.report.violations])
            for r in results
            if not r.ok
        ]

    def test_fired_violations_carry_witnesses(self):
        for result in run_battery():
            (violation,) = result.report.violations
            assert violation.id == result.expected
            assert violation.witness, result.rule

    def test_battery_select_subset(self):
        results = run_battery(("REP201",))
        assert [r.rule for r in results] == ["REP201"]
        assert battery_ok(results)


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
