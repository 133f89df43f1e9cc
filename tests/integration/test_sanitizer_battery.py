"""Integration: sanitized engine runs are violation-free and byte-identical.

The quick tests run a few representative legs in-process; the slow test
replays a larger slice of the committed matrix against
``san-baseline.json``.
"""

from pathlib import Path

import pytest

from repro.san.matrix import (
    load_baseline,
    matrix_legs,
    run_leg,
)

ROOT = Path(__file__).resolve().parents[2]

pytestmark = pytest.mark.no_reprosan  # every test installs its own sanitizer


QUICK_LEGS = [
    ("per-user-count", "onepass", "serial"),
    ("sessionization", "hadoop", "threads:2"),
    ("inverted-index", "hop", "processes:2"),
]


class TestQuickLegs:
    @pytest.mark.parametrize("workload,engine,executor", QUICK_LEGS)
    def test_leg_is_clean_and_byte_identical(self, workload, engine, executor):
        result = run_leg(workload, engine, executor, records=500)
        assert result.report.clean, result.report.to_text()
        assert result.sanitized_digest == result.digest

    def test_detector_subset_run_is_clean(self):
        result = run_leg(
            "page-frequency", "hadoop", "serial",
            records=500, detectors=("race",),
        )
        assert result.report.clean, result.report.to_text()
        assert result.report.detectors == ("race",)


class TestCommittedBaseline:
    def test_baseline_file_covers_the_full_matrix(self):
        baseline = load_baseline(ROOT / "san-baseline.json")
        expected = {f"{w}/{e}/{x}" for w, e, x in matrix_legs()}
        assert set(baseline) == expected
        assert all(len(d) == 64 for d in baseline.values())

    def test_baseline_digests_executor_invariant(self):
        # The determinism contract: per workload+engine, every executor
        # produces the same bytes — the baseline must reflect that.
        baseline = load_baseline(ROOT / "san-baseline.json")
        by_pair = {}
        for leg, digest in baseline.items():
            workload, engine, _ = leg.split("/")
            by_pair.setdefault((workload, engine), set()).add(digest)
        for pair, digests in by_pair.items():
            assert len(digests) == 1, pair

    @pytest.mark.slow
    def test_committed_digests_reproduce(self):
        baseline = load_baseline(ROOT / "san-baseline.json")
        for workload, engine, executor in matrix_legs():
            leg = f"{workload}/{engine}/{executor}"
            result = run_leg(workload, engine, executor)
            assert result.report.clean, (leg, result.report.to_text())
            assert result.digest == baseline[leg], leg
            assert result.sanitized_digest == baseline[leg], leg
