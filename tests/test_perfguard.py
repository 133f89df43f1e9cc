"""Perfguard's phase-attribution path: a failed gate names the phase.

Timing the kernels for real is what CI's perf job does; here ``measure``
is stubbed with synthetic scores derived from the committed baseline, so
the gate logic (tolerance ratios, throughput floors, paired-overhead bounds)
and the regression explanation are tested deterministically.
"""

import importlib.util
import json
import sys
from pathlib import Path

_PG_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "perfguard.py"
_SPEC = importlib.util.spec_from_file_location("perfguard", _PG_PATH)
perfguard = importlib.util.module_from_spec(_SPEC)
sys.modules.setdefault("perfguard", perfguard)
_SPEC.loader.exec_module(perfguard)


def _baseline() -> dict:
    return json.loads(perfguard.BASELINE_PATH.read_text())


def _synthetic_measure(scale_phase=None, factor=1.0):
    """Measurements tracking the committed baseline exactly, except the
    kernels of ``scale_phase`` whose scores are multiplied by ``factor``."""
    base = _baseline()
    floors = base["floors_records_per_sec"]
    out = {}
    for name, score in base["kernels"].items():
        scaled = score
        if scale_phase and perfguard.KERNEL_PHASES.get(name) == scale_phase:
            scaled = score * factor
        out[name] = {
            "score": scaled,
            # comfortably above the recorded floor (floor = baseline / 4)
            "records_per_sec": floors[name] * perfguard.FLOOR_HEADROOM,
        }
    return out


class TestPhaseScores:
    def test_aggregates_by_kernel_phase(self):
        scores = perfguard.phase_scores(
            {"merge_streams": 1.5, "batch_merge_streams": 0.5, "frames_roundtrip": 2.0}
        )
        assert scores == {"merge": 2.0, "shuffle": 2.0}

    def test_unknown_kernels_bucket_as_other(self):
        assert perfguard.phase_scores({"mystery": 1.0}) == {"other": 1.0}

    def test_every_kernel_has_a_phase(self):
        assert set(perfguard.KERNELS) == set(perfguard.KERNEL_PHASES)

    def test_baseline_covers_every_kernel(self):
        assert set(_baseline()["kernels"]) == set(perfguard.KERNELS)


class TestCheckGate:
    def test_passes_at_baseline(self, monkeypatch, capsys):
        monkeypatch.setattr(perfguard, "measure", _synthetic_measure)
        # the interleaved pair gate times real kernels; stub it under every
        # bound here (the no-re-pickling bound on merge_pass is below 1.0)
        monkeypatch.setattr(perfguard, "paired_ratio", lambda *a, **k: 0.5)
        assert perfguard.cmd_check(perfguard.BASELINE_PATH) == 0
        assert "all kernels within" in capsys.readouterr().out

    def test_paired_overhead_breach_fails_the_gate(self, monkeypatch, capsys):
        monkeypatch.setattr(perfguard, "measure", _synthetic_measure)
        monkeypatch.setattr(perfguard, "paired_ratio", lambda *a, **k: 1.5)
        assert perfguard.cmd_check(perfguard.BASELINE_PATH) == 1
        out = capsys.readouterr().out
        assert "san_overhead" in out and "interleaved" in out and "FAIL" in out

    def test_forced_regression_names_the_phase(self, monkeypatch, capsys):
        """The acceptance check: a sort-kernel blowup fails the gate AND
        the failure output names 'sort' as the regressed phase."""
        monkeypatch.setattr(
            perfguard,
            "measure",
            lambda: _synthetic_measure(scale_phase="sort", factor=10.0),
        )
        monkeypatch.setattr(perfguard, "paired_ratio", lambda *a, **k: 0.5)
        assert perfguard.cmd_check(perfguard.BASELINE_PATH) == 1
        captured = capsys.readouterr()
        assert "FAIL" in captured.out
        assert "phase attribution" in captured.err
        assert "regressed phase: sort" in captured.err

    def test_missing_baseline_is_exit_2(self, tmp_path, capsys):
        assert perfguard.cmd_check(tmp_path / "nope.json") == 2
        assert "no baseline" in capsys.readouterr().err


class TestExplainRegression:
    def test_delta_table_and_attribution(self, capsys):
        base = {"batch_partition_sort": 1.0, "incremental_update": 2.0}
        measured = {
            "batch_partition_sort": {"score": 3.0, "records_per_sec": 1.0},
            "incremental_update": {"score": 2.0, "records_per_sec": 1.0},
        }
        perfguard.explain_regression(base, measured)
        err = capsys.readouterr().err
        assert "regressed phase: sort" in err
        assert "3.00x" in err

    def test_silent_when_nothing_grew(self, capsys):
        base = {"batch_partition_sort": 2.0}
        measured = {"batch_partition_sort": {"score": 1.0, "records_per_sec": 1.0}}
        perfguard.explain_regression(base, measured)
        assert "regressed phase" not in capsys.readouterr().err
