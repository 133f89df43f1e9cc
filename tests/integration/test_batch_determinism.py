"""The inert ``batch`` field really is inert.

``JobConfig.batch`` / ``OnePassConfig.batch`` once chose between two
implementations of every sort-merge kernel; one kernel path is left and
nothing in ``src/`` reads the field.  It survives because the end-to-end
benchmark (``benchmarks/e2e``) still builds a ``*.tuple`` and a ``*.batch``
cell from it, and this module pins what that relies on: setting it changes
no observable of a run — output records in order, HDFS file bytes, all
counters except wall-clock timers — on any engine, under any executor,
under injected faults or across a journal resume.  It is deleted together
with the two fields by the benchmark-only PR that retires the
``*.tuple.wall_s`` names; the coverage that is not about the field
(spill-pressure configs, the seeded fault plan, the journal sweep) already
lives in ``test_engines_agree.py`` and ``test_chaos.py``.
"""

import dataclasses

import pytest

from repro.core.engine import OnePassConfig, OnePassEngine
from repro.mapreduce.api import JobConfig
from repro.mapreduce.hop import HOPConfig, HOPEngine
from repro.mapreduce.runtime import HadoopEngine, LocalCluster

from tests.integration.test_engines_agree import (
    _snapshot,
    _workload_jobs,
    fresh_cluster,
)

WORKLOADS = (
    "page-frequency",
    "per-user-count",
    "sessionization",
    "inverted-index",
)
ENGINE_CLASSES = {
    "hadoop": HadoopEngine,
    "hop": HOPEngine,
    "onepass": OnePassEngine,
}


def _job_for(engine, workload, batch, config=None):
    sm_job, op_job, _ = _workload_jobs(workload)
    if engine == "onepass":
        job = op_job("in", "out")
        cfg = config if config is not None else job.config
        if batch:
            cfg = dataclasses.replace(cfg, batch=True)
        return dataclasses.replace(job, config=cfg)
    job = sm_job("in", "out")
    if config is not None:
        job = dataclasses.replace(job, config=config)
    if batch:
        job = job.with_config(batch=True)
    return job


class TestFourWorkloadsThreeEngines:
    """The full matrix: every workload on every engine, field set vs unset."""

    @pytest.mark.parametrize("workload", WORKLOADS)
    @pytest.mark.parametrize("engine", sorted(ENGINE_CLASSES))
    def test_batch_is_byte_identical(self, request, engine, workload):
        records = request.getfixturevalue(_workload_jobs(workload)[2])

        def run(batch):
            cluster = fresh_cluster(records)
            result = ENGINE_CLASSES[engine](cluster).run(
                _job_for(engine, workload, batch)
            )
            return _snapshot(cluster, result)

        assert run(True) == run(False), (engine, workload)


class TestSpillPressure:
    """The memory-pressure configs: spills, multipass merges, hash freezes."""

    @pytest.mark.parametrize("engine", ["hadoop", "hop"])
    def test_sortmerge_spilling_config(self, clicks, engine):
        config = JobConfig(reduce_buffer_bytes=8 * 1024, merge_factor=2)

        def run(batch):
            cluster = fresh_cluster(clicks)
            kwargs = (
                {"hop_config": HOPConfig(granularity_records=100)}
                if engine == "hop"
                else {}
            )
            result = ENGINE_CLASSES[engine](cluster, **kwargs).run(
                _job_for(engine, "per-user-count", batch, config=config)
            )
            return _snapshot(cluster, result)

        assert run(True) == run(False)

    @pytest.mark.parametrize("mode", ["incremental", "hybrid", "hotset"])
    def test_onepass_constrained_memory(self, clicks, mode):
        config = OnePassConfig(
            mode=mode,
            map_memory_bytes=16 * 1024,
            reduce_memory_bytes=32 * 1024,
            map_side_combine=False,
        )

        def run(batch):
            cluster = fresh_cluster(clicks)
            result = OnePassEngine(cluster).run(
                _job_for("onepass", "per-user-count", batch, config=config)
            )
            return _snapshot(cluster, result)

        assert run(True) == run(False), mode


class TestExecutors:
    """Set under any executor, the field changes nothing from the serial
    run with it unset."""

    @pytest.mark.slow
    @pytest.mark.parametrize("executor", [None, "threads:2", "processes:2"])
    @pytest.mark.parametrize("engine", sorted(ENGINE_CLASSES))
    def test_batch_across_executors(self, clicks, engine, executor):
        def run(batch, executor):
            cluster = fresh_cluster(clicks)
            result = ENGINE_CLASSES[engine](cluster, executor=executor).run(
                _job_for(engine, "per-user-count", batch)
            )
            return _snapshot(cluster, result)

        assert run(True, executor) == run(False, None), (engine, executor)


class TestUnderFaults:
    @pytest.mark.slow
    @pytest.mark.parametrize("engine", sorted(ENGINE_CLASSES))
    def test_batch_under_seeded_fault_plan(self, clicks, engine):
        """A seeded FaultPlan injects the same failures into both runs."""
        from repro.mapreduce.faults import FaultPlan

        def cluster():
            c = LocalCluster(num_nodes=4, block_size=64 * 1024, replication=2)
            c.hdfs.write_records("in", clicks)
            return c

        n_tasks = len(cluster().hdfs.input_splits("in"))

        def run(batch):
            c = cluster()
            plan = FaultPlan.random(
                seed=29,
                num_map_tasks=n_tasks,
                num_reducers=2,
                nodes=c.nodes,
                shuffle_failure_rate=0.05,
                crash_after=3,
            )
            kwargs = {"fault_plan": plan}
            if engine == "onepass":
                kwargs["checkpoint_interval"] = 4
            result = ENGINE_CLASSES[engine](cluster=c, **kwargs).run(
                _job_for(engine, "per-user-count", batch)
            )
            return _snapshot(c, result)

        assert run(True) == run(False), engine

    @pytest.mark.slow
    @pytest.mark.parametrize("engine", sorted(ENGINE_CLASSES))
    def test_batch_survives_journal_resume(self, engine, tmp_path):
        """Crash the coordinator mid-run and resume from the journal with the
        field set (it is part of the job fingerprint): the sweep harness
        verifies the resumed run's output against an uncrashed reference."""
        from repro.testing import ChaosTarget, run_crashpoint_sweep
        from repro.workloads.clickstream import ClickStreamConfig, generate_clicks

        records = list(
            generate_clicks(
                ClickStreamConfig(num_clicks=900, num_users=40, num_urls=30)
            )
        )

        def make_cluster():
            c = LocalCluster(num_nodes=3, block_size=32 * 1024)
            c.hdfs.write_records("in", records)
            return c

        target = ChaosTarget(
            name=f"{engine}-batch",
            make_cluster=make_cluster,
            make_engine=lambda cluster, journal: ENGINE_CLASSES[engine](
                cluster, journal=journal
            ),
            make_job=lambda: _job_for(engine, "per-user-count", batch=True),
        )
        report = run_crashpoint_sweep(
            target,
            str(tmp_path),
            mode="sampled",
            samples=2,
            seed=7,
            crash_modes=("after",),
        )
        assert report.crashes == report.resumes == 2
        assert report.output_records > 0
