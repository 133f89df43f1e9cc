"""Reporter satellites: SARIF 2.1.0 output, ``--stats`` timings and the
catalogue shared with reprosan."""

import json
import subprocess
import sys
from pathlib import Path

import repro.lint.rules as rules_mod
from repro.lint.core import Finding
from repro.lint.report import SARIF_SCHEMA, format_findings, to_sarif

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
ENV = {"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"}


def run_cli(*argv, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "-m", "repro", "lint", *argv],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=ENV,
    )


FINDINGS = [
    Finding("REP201", "src/repro/exec/base.py", 10, 5, "race on '_X'"),
    Finding("REP999", "src/weird.py", 1, 0, "rule unknown to the catalogue"),
]


class TestSarif:
    def test_document_shape(self):
        doc = json.loads(to_sarif(FINDINGS))
        assert doc["$schema"] == SARIF_SCHEMA
        assert doc["version"] == "2.1.0"
        (run,) = doc["runs"]
        assert run["tool"]["driver"]["name"] == "reprolint"

    def test_catalogue_covers_every_layer(self):
        doc = json.loads(to_sarif([]))
        rules = doc["runs"][0]["tool"]["driver"]["rules"]
        ids = [r["id"] for r in rules]
        assert ids == [r.id for r in rules_mod.ALL_RULES]
        for r in rules:
            assert r["shortDescription"]["text"]
            assert r["defaultConfiguration"] == {"level": "error"}
        assert {"REP002", "REP101", "REP201", "REP202", "REP204", "REP205"} <= set(ids)

    def test_results_carry_locations_and_rule_index(self):
        doc = json.loads(to_sarif(FINDINGS))
        run = doc["runs"][0]
        known, unknown = run["results"]
        loc = known["locations"][0]["physicalLocation"]
        assert loc["artifactLocation"]["uri"] == "src/repro/exec/base.py"
        assert loc["region"] == {"startLine": 10, "startColumn": 5}
        catalogue = run["tool"]["driver"]["rules"]
        assert catalogue[known["ruleIndex"]]["id"] == "REP201"
        # Unknown rules still serialise (no index), and col 0 clamps to 1.
        assert "ruleIndex" not in unknown
        assert unknown["locations"][0]["physicalLocation"]["region"][
            "startColumn"
        ] == 1

    def test_cli_emits_sarif_for_a_violation(self, tmp_path):
        bad = tmp_path / "src" / "repro" / "core"
        bad.mkdir(parents=True)
        (bad / "fx.py").write_text("import time\nx = time.time()\n")
        proc = run_cli(str(bad / "fx.py"), "--format", "sarif")
        assert proc.returncode == 1, proc.stdout + proc.stderr
        doc = json.loads(proc.stdout)
        results = doc["runs"][0]["results"]
        assert any(r["ruleId"] == "REP101" for r in results)


class TestStats:
    def test_json_timings_key_is_opt_in(self):
        assert "timings" not in json.loads(format_findings([], "json"))
        payload = json.loads(format_findings([], "json", timings={"REP101": 0.25}))
        assert payload["timings"] == {"REP101": 0.25}

    def test_cli_stats_lists_every_rule(self, tmp_path):
        mod = tmp_path / "src" / "repro" / "core"
        mod.mkdir(parents=True)
        (mod / "fx.py").write_text("x = 1\n")
        proc = run_cli(str(mod / "fx.py"), "--stats", "--format", "json")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        timings = json.loads(proc.stdout)["timings"]
        assert set(timings) == {r.id for r in rules_mod.ALL_RULES}
        assert all(t >= 0 for t in timings.values())


class TestSharedCatalogue:
    """The SARIF writer is shared by reprolint and reprosan."""

    def test_full_catalogue_extends_the_lint_catalogue(self):
        from repro.lint.sarif import full_catalogue, rule_catalogue
        from repro.san.report import DETECTORS

        full = full_catalogue()
        ids = [r["id"] for r in full]
        assert len(set(ids)) == len(ids)
        # Every dynamic detector, then every static rule.
        assert set(ids) == {d.id for d in DETECTORS} | {
            r.id for r in rules_mod.ALL_RULES
        }
        assert ids[len(DETECTORS):] == [r["id"] for r in rule_catalogue()]

    def test_detector_entries_name_their_static_rules(self):
        from repro.lint.sarif import full_catalogue
        from repro.san.report import DETECTORS

        by_id = {r["id"]: r for r in full_catalogue()}
        for d in DETECTORS:
            entry = by_id[d.id]
            assert entry["properties"]["staticRules"] == list(d.static_rules)
            assert entry["title"] == d.title

    def test_shared_document_schema(self):
        from repro.lint.sarif import sarif_document, sarif_result, to_sarif_json

        doc = json.loads(
            to_sarif_json(
                sarif_document(
                    "anytool",
                    [{"id": "X1", "name": "XRule", "title": "t"}],
                    [sarif_result("X1", "m", "a.py", 3, rule_index=0)],
                )
            )
        )
        assert doc["$schema"] == SARIF_SCHEMA
        assert doc["version"] == "2.1.0"
        (run,) = doc["runs"]
        assert run["tool"]["driver"]["name"] == "anytool"
        assert run["columnKind"] == "utf16CodeUnits"
        (result,) = run["results"]
        assert result["ruleIndex"] == 0
