"""End-to-end tests for ``repro sanitize``."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
ENV = {**os.environ, "PYTHONPATH": str(SRC)}

pytestmark = pytest.mark.no_reprosan  # subprocesses install their own sanitizers


def run_cli(*argv, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "-m", "repro", "sanitize", *argv],
        cwd=cwd,
        env=ENV,
        capture_output=True,
        text=True,
    )


class TestBatteryCommand:
    def test_battery_select_subset_exits_zero(self):
        proc = run_cli("--battery", "--select", "REP102,REP202")
        assert proc.returncode == 0, proc.stderr
        assert "REP102 -> SAN102  fired 1  [ok]" in proc.stdout
        assert "REP202 -> SAN202  fired 1  [ok]" in proc.stdout
        assert "battery: all 2 detector(s) fired exactly once" in proc.stdout


class TestSingleLeg:
    def test_clean_leg_terminal_format(self):
        proc = run_cli(
            "--workload", "per-user-count", "--engine", "onepass",
            "--records", "300",
        )
        assert proc.returncode == 0, proc.stderr
        assert "sanitizer-clean: no violations" in proc.stdout

    def test_clean_leg_json_format(self):
        proc = run_cli(
            "--workload", "per-user-count", "--engine", "hadoop",
            "--records", "300", "--format", "json",
        )
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["schema"] == "repro.san-report/v1"
        assert payload["violations"] == []
        assert set(payload["detectors"]) == {"sentinel", "race", "resource", "pickle"}

    def test_clean_leg_sarif_format_carries_full_catalogue(self):
        proc = run_cli(
            "--workload", "per-user-count", "--engine", "hop",
            "--records", "300", "--format", "sarif",
        )
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        (run,) = doc["runs"]
        ids = {rule["id"] for rule in run["tool"]["driver"]["rules"]}
        # Shared catalogue: dynamic detectors AND every static rule.
        assert {"SAN001", "SAN201", "SAN103", "SAN102"} <= ids
        assert {"REP101", "REP201", "REP205", "REP102"} <= ids
        assert run["results"] == []

    def test_detector_subset_flag(self):
        proc = run_cli(
            "--workload", "per-user-count", "--engine", "onepass",
            "--records", "300", "--detectors", "race,resource",
            "--format", "json",
        )
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert set(payload["detectors"]) == {"race", "resource"}

    def test_workload_required_without_battery_or_matrix(self):
        proc = run_cli()
        assert proc.returncode != 0
        assert "--workload is required" in proc.stderr


class TestMatrixCommand:
    def test_single_leg_matrix_against_committed_baseline(self):
        # The committed baseline pins records=2000; restrict to one leg
        # to keep this in tier-1 time.
        proc = run_cli(
            "--matrix", "--workload", "per-user-count",
            "--engine", "onepass", "--executor", "serial",
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "ok   per-user-count/onepass/serial" in proc.stdout
        assert "matrix: all 1 leg(s) sanitizer-clean and byte-identical" in proc.stdout

    def test_write_baseline_roundtrip(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        common = (
            "--matrix", "--workload", "per-user-count", "--engine", "hadoop",
            "--executor", "serial", "--records", "300",
            "--baseline", str(baseline),
        )
        proc = run_cli(*common, "--write-baseline")
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(baseline.read_text())
        assert payload["schema"] == "repro.san-baseline/v1"
        assert list(payload["legs"]) == ["per-user-count/hadoop/serial"]
        # Re-run against the fresh baseline: digests must match.
        proc = run_cli(*common)
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_baseline_drift_fails(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(
            json.dumps(
                {
                    "schema": "repro.san-baseline/v1",
                    "records": 300,
                    "nodes": 3,
                    "legs": {"per-user-count/hadoop/serial": "0" * 64},
                }
            )
        )
        proc = run_cli(
            "--matrix", "--workload", "per-user-count", "--engine", "hadoop",
            "--executor", "serial", "--records", "300",
            "--baseline", str(baseline),
        )
        assert proc.returncode == 1
        assert "drifted" in proc.stdout
