"""Command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "--workload", "page-frequency"])
        args.engine == "onepass"

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--workload", "bogus"])


class TestCommands:
    def test_run_each_engine(self, capsys):
        for engine in ("hadoop", "hop", "onepass"):
            rc = main(
                [
                    "run",
                    "--workload",
                    "page-frequency",
                    "--engine",
                    engine,
                    "--records",
                    "3000",
                ]
            )
            assert rc == 0
            out = capsys.readouterr().out
            assert "wall time" in out
            assert engine in out

    def test_run_inverted_index(self, capsys):
        rc = main(
            ["run", "--workload", "inverted-index", "--engine", "onepass", "--records", "3000"]
        )
        assert rc == 0
        assert "output records" in capsys.readouterr().out

    def test_simulate_with_override_and_export(self, capsys, tmp_path):
        rc = main(
            [
                "simulate",
                "--workload",
                "per-user-count",
                "--engine",
                "onepass",
                "--input-gb",
                "4",
                "--bucket",
                "5",
                "--export-dir",
                str(tmp_path),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "cpu util" in out
        assert (tmp_path / "per-user-count-onepass.json").exists()

    def test_simulate_hop_engine(self, capsys):
        rc = main(
            [
                "simulate",
                "--workload",
                "sessionization",
                "--engine",
                "hop",
                "--input-gb",
                "4",
                "--bucket",
                "5",
            ]
        )
        assert rc == 0
        assert "merge" in capsys.readouterr().out

    def test_simulate_architectures(self, capsys):
        for flag in ("--ssd", "--separate-storage"):
            rc = main(
                [
                    "simulate",
                    "--workload",
                    "sessionization",
                    "--input-gb",
                    "4",
                    "--bucket",
                    "5",
                    flag,
                ]
            )
            assert rc == 0

    def test_compare(self, capsys):
        rc = main(
            ["compare", "--workload", "per-user-count", "--records", "5000"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "sort-merge" in out and "one-pass" in out
        assert "saves" in out


class TestJournalCommands:
    def test_run_with_journal_then_resume(self, capsys, tmp_path):
        journal_dir = str(tmp_path / "wal")
        rc = main(
            [
                "run",
                "--workload",
                "per-user-count",
                "--engine",
                "onepass",
                "--records",
                "2000",
                "--journal",
                journal_dir,
            ]
        )
        assert rc == 0
        first = capsys.readouterr().out
        assert "output records" in first

        # The run committed, so resume is a pure replay: same output
        # records, zero map work.
        rc = main(["resume", journal_dir])
        assert rc == 0
        resumed = capsys.readouterr().out
        assert "resumed per-user-count on onepass" in resumed
        assert "map input records  | 0" in resumed
        # Both tables report the same output record count.
        def output_records(table):
            row = next(l for l in table.splitlines() if l.startswith("output records"))
            return int(row.split("|")[1])

        assert output_records(resumed) == output_records(first) > 0

    def test_resume_requires_run_config(self, tmp_path):
        from repro.mapreduce.journal import K_MAP_COMMIT, JobJournal

        j = JobJournal(tmp_path / "wal")
        j.append(K_MAP_COMMIT, task=0, node="n")
        j.finalize()
        with pytest.raises(SystemExit, match="run-config"):
            main(["resume", str(tmp_path / "wal")])

    def test_chaos_sampled_sweep(self, capsys, tmp_path):
        rc = main(
            [
                "chaos",
                "--workload",
                "page-frequency",
                "--engine",
                "hadoop",
                "--records",
                "1200",
                "--mode",
                "sampled",
                "--samples",
                "2",
                "--seed",
                "3",
                "--crash-mode",
                "after",
                "--workdir",
                str(tmp_path / "sweep"),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "all invariants held" in out
        # --workdir keeps the per-site journals around for inspection.
        assert any((tmp_path / "sweep").iterdir())


class TestAnalyzeCommand:
    def _trace(self, tmp_path, fmt):
        path = str(tmp_path / f"trace.{fmt}")
        rc = main(
            [
                "run",
                "--workload",
                "per-user-count",
                "--engine",
                "hadoop",
                "--records",
                "2000",
                "--trace",
                path,
                "--trace-format",
                fmt,
            ]
        )
        assert rc == 0
        return path

    def test_run_analyze_inline(self, capsys):
        rc = main(
            [
                "run",
                "--workload",
                "per-user-count",
                "--engine",
                "onepass",
                "--records",
                "2000",
                "--analyze",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "performance analysis" in out
        assert "critical path" in out

    def test_analyze_trace_file_terminal(self, capsys, tmp_path):
        path = self._trace(tmp_path, "jsonl")
        capsys.readouterr()
        assert main(["analyze", path]) == 0
        out = capsys.readouterr().out
        assert "performance analysis" in out
        assert "barriers & pipelining" in out

    def test_analyze_json_identical_for_both_trace_formats(self, capsys, tmp_path):
        """jsonl and chrome traces of the same run analyze identically."""
        import json

        from repro.obs.analyze import validate_report

        reports = []
        for fmt in ("jsonl", "chrome"):
            path = self._trace(tmp_path, fmt)
            capsys.readouterr()
            assert main(["analyze", path, "--format", "json"]) == 0
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1]
        assert validate_report(json.loads(reports[0])) == []

    def test_analyze_out_writes_html(self, capsys, tmp_path):
        path = self._trace(tmp_path, "jsonl")
        out_path = str(tmp_path / "report.html")
        assert main(["analyze", path, "--format", "html", "--out", out_path]) == 0
        assert "wrote html report" in capsys.readouterr().out
        with open(out_path, encoding="utf-8") as fh:
            assert fh.read().startswith("<!doctype html>")

    def test_analyze_journal_directory(self, capsys, tmp_path):
        journal_dir = str(tmp_path / "wal")
        rc = main(
            [
                "run",
                "--workload",
                "per-user-count",
                "--engine",
                "onepass",
                "--records",
                "2000",
                "--journal",
                journal_dir,
            ]
        )
        assert rc == 0
        capsys.readouterr()
        assert main(["analyze", journal_dir]) == 0
        out = capsys.readouterr().out
        assert "journal committed state" in out
        assert "task grants" not in out  # volatile stats need --detail
        assert main(["analyze", journal_dir, "--detail"]) == 0
        assert "task grants" in capsys.readouterr().out

    def test_analyze_baseline_names_regressed_phase(self, capsys, tmp_path):
        import json

        path = self._trace(tmp_path, "jsonl")
        base_path = str(tmp_path / "base.json")
        assert main(["analyze", path, "--format", "json", "--out", base_path]) == 0
        capsys.readouterr()

        # Same trace vs itself: nothing regressed.
        assert main(["analyze", path, "--baseline", base_path]) == 0
        assert "no phase regressed" in capsys.readouterr().out

        # Shrink the baseline's sort ticks: the current trace now reads
        # as a sort regression, and the delta table names it.
        with open(base_path, encoding="utf-8") as fh:
            base = json.load(fh)
        base["phases"]["sort"]["ticks"] //= 10
        with open(base_path, "w", encoding="utf-8") as fh:
            json.dump(base, fh)
        assert main(["analyze", path, "--baseline", base_path]) == 0
        assert "regressed phase: sort" in capsys.readouterr().out

    def test_compare_analyze_prints_delta(self, capsys):
        rc = main(
            [
                "compare",
                "--workload",
                "per-user-count",
                "--records",
                "4000",
                "--analyze",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "per-phase delta: sort-merge -> one-pass" in out
        assert out.count("performance analysis") == 2

    @pytest.mark.parametrize("fmt", ["jsonl", "chrome"])
    def test_three_trace_writers_analyze_to_the_same_metrics(self, capsys, tmp_path, fmt):
        """``run --trace``, ``trace --out`` and ``compare --trace`` write the
        same job's trace; whichever wrote it, ``analyze`` derives the same
        (non-empty) metrics section from its spans."""
        import json

        cell = ["--workload", "per-user-count", "--records", "4000"]
        paths = {w: str(tmp_path / f"{w}.{fmt}") for w in ("run", "trace", "compare")}
        main(["run", *cell, "--engine", "hadoop", "--trace", paths["run"], "--trace-format", fmt])
        main(["trace", *cell, "--engine", "hadoop", "--out", paths["trace"], "--format", fmt])
        main(["compare", *cell, "--trace", paths["compare"], "--trace-format", fmt])
        paths["compare"] = str(tmp_path / f"compare-sort-merge.{fmt}")
        metrics = {}
        for writer, path in paths.items():
            capsys.readouterr()
            assert main(["analyze", path, "--format", "json"]) == 0
            metrics[writer] = json.loads(capsys.readouterr().out)["metrics"]
        assert sorted(metrics["run"]) == ["map.sort.records", "shuffle.segment.bytes"]
        assert metrics["trace"] == metrics["run"]
        assert metrics["compare"] == metrics["run"]
