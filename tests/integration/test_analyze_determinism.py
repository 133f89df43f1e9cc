"""Analyzer reports are deterministic artifacts.

``repro analyze`` output is logical-clock arithmetic over the trace, so
the canonical JSON rendering must be byte-identical whether the run used
the serial, thread or process executor — clean or under a seeded fault
plan — and a journal report must converge to the same bytes whether the
journal came from an uninterrupted run or a crash-and-resume at an
arbitrary append site (the exactly-once guarantee, observed through the
analyzer instead of the output file).
"""

import json

import pytest

from repro.core.engine import OnePassEngine
from repro.mapreduce.faults import FaultPlan
from repro.mapreduce.hop import HOPEngine
from repro.mapreduce.journal import CoordinatorCrash, JobJournal
from repro.mapreduce.runtime import HadoopEngine, LocalCluster
from repro.obs.analyze import (
    analyze_journal,
    analyze_tracer,
    render_json,
    validate_report,
)
from repro.obs.tracer import Tracer
from repro.workloads import per_user_count_job, per_user_count_onepass_job
from repro.workloads.clickstream import ClickStreamConfig, generate_clicks

EXECUTORS = (None, "threads:2", "processes:2")
ENGINES = ("hadoop", "hop", "onepass")

# Two blocks on both clusters below: the seeded plan is drawn for two map tasks.
CLICKS = list(
    generate_clicks(
        ClickStreamConfig(num_clicks=3_500, num_users=120, num_urls=60, seed=13)
    )
)


def _report_json(engine, executor, *, faults=False):
    """One traced run -> the canonical JSON report bytes."""
    if faults:
        cluster = LocalCluster(num_nodes=4, block_size=64 * 1024, replication=2)
    else:
        cluster = LocalCluster(num_nodes=3, block_size=48 * 1024)
    cluster.hdfs.write_records("in", CLICKS)
    tracer = Tracer()
    kwargs = {"executor": executor, "tracer": tracer}
    if faults:
        kwargs["fault_plan"] = FaultPlan.random(
            seed=29,
            num_map_tasks=len(cluster.hdfs.input_splits("in")),
            num_reducers=2,
            nodes=cluster.nodes,
            map_failure_rate=0.2,
            shuffle_failure_rate=0.05,
            reduce_failure_rate=0.3,
            crash_after=3,
        )
    if engine == "hadoop":
        HadoopEngine(cluster, **kwargs).run(per_user_count_job("in", "out"))
    elif engine == "hop":
        HOPEngine(cluster, **kwargs).run(per_user_count_job("in", "out"))
    else:
        if faults:
            kwargs["checkpoint_interval"] = 4
        OnePassEngine(cluster, **kwargs).run(
            per_user_count_onepass_job("in", "out")
        )
    return render_json(analyze_tracer(tracer, job_name=f"{engine}:per-user-count"))


class TestReportDeterminism:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_byte_identical_across_executors(self, engine):
        reference = _report_json(engine, None)
        assert validate_report(json.loads(reference)) == []
        for executor in EXECUTORS[1:]:
            assert _report_json(engine, executor) == reference, (engine, executor)

    @pytest.mark.slow
    @pytest.mark.parametrize("engine", ENGINES)
    def test_byte_identical_under_seeded_faults(self, engine):
        reference = _report_json(engine, None, faults=True)
        report = json.loads(reference)
        assert validate_report(report) == []
        # The plan actually bit: recovery shows up in the skew section.
        assert report["skew"]["recovery_events"], engine
        for executor in EXECUTORS[1:]:
            assert _report_json(engine, executor, faults=True) == reference, (
                engine,
                executor,
            )


class TestJournalReportConvergence:
    def test_crash_resume_report_matches_uninterrupted(self, tmp_path):
        def fresh_cluster():
            cluster = LocalCluster(num_nodes=3, block_size=48 * 1024)
            cluster.hdfs.write_records("in", CLICKS)
            return cluster

        ref_journal = JobJournal(tmp_path / "ref")
        HadoopEngine(fresh_cluster(), journal=ref_journal).run(
            per_user_count_job("in", "out")
        )
        reference = render_json(analyze_journal(str(tmp_path / "ref")))
        site = ref_journal.appends // 2
        assert site > 0

        for crash_mode in ("after", "torn"):
            journal_dir = tmp_path / f"site-{crash_mode}"
            with pytest.raises(CoordinatorCrash):
                HadoopEngine(
                    fresh_cluster(),
                    journal=JobJournal(journal_dir, crash_at=site, crash_mode=crash_mode),
                ).run(per_user_count_job("in", "out"))
            HadoopEngine(fresh_cluster(), journal=JobJournal(journal_dir)).run(
                per_user_count_job("in", "out")
            )
            # Converged view: identical bytes to the uninterrupted history.
            assert render_json(analyze_journal(str(journal_dir))) == reference
            # The per-session detail legitimately differs and says so.
            detail = analyze_journal(str(journal_dir), detail=True)
            assert detail["session"]["records"] > 0
