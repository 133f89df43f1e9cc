"""Crashpoint chaos sweeps: kill the coordinator everywhere, resume, verify.

The acceptance bar for the journal subsystem: an exhaustive sweep — crash
at *every* journal-append site, in both crash modes — must hold all six
invariants (byte-identical output, exactly-once commits, no orphans,
counter consistency, idempotent replay, and commit before emit on the
crashed cluster) on every engine, with and without a seeded
:class:`FaultPlan` running underneath.
"""

import pytest

from repro.core.engine import OnePassEngine
from repro.mapreduce.faults import FaultPlan
from repro.mapreduce.hop import HOPEngine
from repro.mapreduce.runtime import HadoopEngine, LocalCluster
from repro.testing import ChaosTarget, run_crashpoint_sweep
from repro.testing.chaos import _pick_sites
from repro.workloads import per_user_count_job, per_user_count_onepass_job
from repro.workloads.clickstream import ClickStreamConfig, generate_clicks

# Two 32 KiB blocks: the seeded plans below are drawn for two map tasks.
RECORDS = list(
    generate_clicks(ClickStreamConfig(num_clicks=1_400, num_users=40, num_urls=30))
)

ENGINES = {
    "hadoop": (HadoopEngine, per_user_count_job),
    "hop": (HOPEngine, per_user_count_job),
    "onepass": (OnePassEngine, per_user_count_onepass_job),
}


def make_cluster():
    cluster = LocalCluster(num_nodes=3, block_size=32 * 1024)
    cluster.hdfs.write_records("in", RECORDS)
    return cluster


def target_for(engine, *, fault_seed=None, **engine_kwargs):
    engine_cls, job_fn = ENGINES[engine]

    def make_engine(cluster, journal):
        kwargs = dict(engine_kwargs)
        if fault_seed is not None:
            # A fresh plan per engine instance: plans are stateful, and the
            # same seed gives crash and resume identical fault schedules.
            # Sized to the job (the driver refuses a plan aimed at tasks
            # that do not exist); seed 7 kills one map and one reduce attempt.
            kwargs["fault_plan"] = FaultPlan.random(
                fault_seed,
                num_map_tasks=len(cluster.hdfs.input_splits("in")),
                num_reducers=2,
                map_failure_rate=0.3,
                reduce_failure_rate=0.3,
                torn_write_rate=1.0,
                short_read_rate=1.0,
            )
        return engine_cls(cluster, journal=journal, **kwargs)

    return ChaosTarget(
        name=engine,
        make_cluster=make_cluster,
        make_engine=make_engine,
        make_job=lambda: job_fn("in", "out"),
    )


class TestExhaustiveSweep:
    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_all_sites_both_crash_modes(self, engine, tmp_path):
        report = run_crashpoint_sweep(
            target_for(engine), str(tmp_path), mode="exhaustive"
        )
        assert report.sites >= 5
        assert report.sites_swept == list(range(1, report.sites + 1))
        assert report.crashes == report.resumes == report.replays == 2 * report.sites
        assert report.output_records > 0

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_under_seeded_fault_plan(self, engine, tmp_path):
        kwargs = {"checkpoint_interval": 3} if engine == "onepass" else {}
        report = run_crashpoint_sweep(
            target_for(engine, fault_seed=7, **kwargs),
            str(tmp_path),
            mode="exhaustive",
        )
        assert report.crashes == 2 * report.sites
        assert report.output_records > 0


class TestSampledSweep:
    def test_sampled_mode_is_a_subset(self, tmp_path):
        report = run_crashpoint_sweep(
            target_for("onepass"),
            str(tmp_path),
            mode="sampled",
            samples=3,
            seed=42,
            crash_modes=("after",),
        )
        assert len(report.sites_swept) == 3
        assert all(1 <= k <= report.sites for k in report.sites_swept)
        assert report.crashes == report.resumes == 3

    def test_site_sampling_is_seeded(self):
        assert _pick_sites(20, "sampled", 5, 7) == _pick_sites(20, "sampled", 5, 7)
        assert _pick_sites(20, "sampled", 5, 7) != _pick_sites(20, "sampled", 5, 8)
        assert _pick_sites(3, "sampled", 10, 0) == [1, 2, 3]
        assert _pick_sites(4, "exhaustive", 1, 0) == [1, 2, 3, 4]
        with pytest.raises(ValueError, match="unknown sweep mode"):
            _pick_sites(4, "randomly", 1, 0)


class TestHarnessGuards:
    def test_journal_less_engine_rejected(self, tmp_path):
        engine_cls, job_fn = ENGINES["hadoop"]
        silent = ChaosTarget(
            name="no-journal",
            make_cluster=make_cluster,
            # Drops the journal on the floor: the reference run appends
            # nothing, which the harness must flag instead of vacuously
            # passing a zero-site sweep.
            make_engine=lambda cluster, journal: engine_cls(cluster),
            make_job=lambda: job_fn("in", "out"),
        )
        with pytest.raises(ValueError, match="no journal appends"):
            run_crashpoint_sweep(silent, str(tmp_path))

    def test_unknown_crash_mode_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown crash modes"):
            run_crashpoint_sweep(
                target_for("hadoop"), str(tmp_path), crash_modes=("during",)
            )


@pytest.mark.no_reprosan  # each test installs its own sanitizer
class TestSanitizerInterplay:
    """Sanitizer x FaultPlan x crashpoint interplay (reprosan).

    Injected faults and simulated coordinator crashes are *modelled*
    failures: retried batches must not look like races to the sanitizer,
    and installing it must not perturb the recovered output.
    """

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_crashpoint_sweep_is_sanitizer_clean(self, engine, tmp_path):
        from repro.san import Sanitizer

        with Sanitizer() as san:
            report = run_crashpoint_sweep(
                target_for(engine),
                str(tmp_path),
                mode="sampled",
                samples=3,
                seed=11,
            )
        assert report.output_records > 0
        assert san.report.clean, san.report.to_text()

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_faulted_sweep_under_all_detectors(self, engine, tmp_path):
        from repro.san import Sanitizer

        kwargs = {"checkpoint_interval": 3} if engine == "onepass" else {}
        with Sanitizer() as san:
            report = run_crashpoint_sweep(
                target_for(engine, fault_seed=7, **kwargs),
                str(tmp_path),
                mode="sampled",
                samples=3,
                seed=11,
            )
        # Both crash modes at each sampled site.
        assert report.crashes == report.resumes == 2 * 3
        assert san.report.clean, san.report.to_text()

    def test_faulted_run_output_unperturbed_by_sanitizer(self, tmp_path):
        # Same seeded faults with and without the sanitizer installed:
        # recovered output must be byte-identical.
        from repro.san import Sanitizer

        def run_once():
            cluster = make_cluster()
            engine_cls, job_fn = ENGINES["hadoop"]
            engine = engine_cls(
                cluster,
                fault_plan=FaultPlan.random(
                    7,
                    num_map_tasks=len(cluster.hdfs.input_splits("in")),
                    num_reducers=2,
                    map_failure_rate=0.3,
                    reduce_failure_rate=0.3,
                    torn_write_rate=1.0,
                    short_read_rate=1.0,
                ),
            )
            engine.run(job_fn("in", "out"))
            return repr(list(cluster.hdfs.read_records("out")))

        plain = run_once()
        with Sanitizer() as san:
            sanitized = run_once()
        assert san.report.clean, san.report.to_text()
        assert sanitized == plain
