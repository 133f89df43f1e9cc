"""End-to-end fault recovery across workloads and engines."""

import pytest

from repro.core.engine import OnePassConfig, OnePassEngine
from repro.mapreduce.counters import C
from repro.mapreduce.faults import FaultPlan
from repro.mapreduce.hop import HOPEngine
from repro.mapreduce.recovery import SpeculationPolicy
from repro.mapreduce.runtime import HadoopEngine, LocalCluster
from repro.workloads.inverted_index import (
    inverted_index_job,
    inverted_index_onepass_job,
    reference_index,
)
from repro.workloads.sessionization import (
    reference_sessions,
    sessionization_job,
    sessionization_onepass_job,
)


def every_other_task_fails(cluster, path):
    n = len(cluster.hdfs.input_splits(path))
    return FaultPlan(map_failures={t: 1 for t in range(0, n, 2)})


class TestSessionizationUnderFaults:
    def test_hadoop(self, clicks):
        cluster = LocalCluster(num_nodes=3, block_size=64 * 1024)
        cluster.hdfs.write_records("in", clicks)
        plan = every_other_task_fails(cluster, "in")
        result = HadoopEngine(cluster, fault_plan=plan).run(
            sessionization_job("in", "out", gap=5.0)
        )
        assert sorted(cluster.hdfs.read_records("out")) == reference_sessions(
            clicks, gap=5.0
        )
        assert result.counters[C.MAP_TASK_RETRIES] == plan.total_failures_injected

    def test_onepass_holistic_job(self, clicks):
        cluster = LocalCluster(num_nodes=3, block_size=64 * 1024)
        cluster.hdfs.write_records("in", clicks)
        plan = every_other_task_fails(cluster, "in")
        OnePassEngine(cluster, fault_plan=plan).run(
            sessionization_onepass_job("in", "out", gap=5.0)
        )
        assert sorted(cluster.hdfs.read_records("out")) == reference_sessions(
            clicks, gap=5.0
        )


class TestInvertedIndexUnderFaults:
    def test_hadoop(self, documents):
        cluster = LocalCluster(num_nodes=3, block_size=64 * 1024)
        cluster.hdfs.write_records("in", documents)
        plan = FaultPlan(map_failures={0: 2})
        HadoopEngine(cluster, fault_plan=plan).run(inverted_index_job("in", "out"))
        assert dict(cluster.hdfs.read_records("out")) == reference_index(documents)

    def test_onepass_hotset_with_faults(self, documents):
        cluster = LocalCluster(num_nodes=3, block_size=64 * 1024)
        cluster.hdfs.write_records("in", documents)
        plan = FaultPlan(map_failures={0: 1})
        OnePassEngine(cluster, fault_plan=plan).run(
            inverted_index_onepass_job("in", "out")
        )
        assert dict(cluster.hdfs.read_records("out")) == reference_index(documents)


class TestFaultsPlusReplication:
    def test_retry_on_another_node_reads_remote_replica(self, clicks):
        """A retried task lands on a different node; with replication=2 it
        may still find a local replica — either way the answer holds."""
        cluster = LocalCluster(num_nodes=3, block_size=64 * 1024, replication=2)
        cluster.hdfs.write_records("in", clicks)
        plan = every_other_task_fails(cluster, "in")
        from repro.workloads.page_frequency import (
            page_frequency_job,
            reference_page_counts,
        )

        HadoopEngine(cluster, fault_plan=plan).run(page_frequency_job("in", "out"))
        assert dict(cluster.hdfs.read_records("out")) == reference_page_counts(clicks)

    def test_storage_loss_plus_task_failures(self, clicks):
        """The full gauntlet: one DataNode wiped *and* map attempts killed."""
        cluster = LocalCluster(num_nodes=3, block_size=64 * 1024, replication=2)
        cluster.hdfs.write_records("in", clicks)
        cluster.nodes["node02"].hdfs_disk.delete_prefix("hdfs/")
        plan = FaultPlan(map_failures={0: 1, 3: 1})
        from repro.workloads.per_user_count import (
            per_user_count_job,
            reference_user_counts,
        )

        HadoopEngine(cluster, fault_plan=plan).run(per_user_count_job("in", "out"))
        assert dict(cluster.hdfs.read_records("out")) == reference_user_counts(clicks)


def replicated_cluster(clicks, records_per_chunk=256):
    cluster = LocalCluster(num_nodes=4, block_size=64 * 1024, replication=2)
    cluster.hdfs.write_records("in", clicks, records_per_chunk=records_per_chunk)
    return cluster


def jobs_for(name):
    from repro.workloads.per_user_count import (
        per_user_count_job,
        per_user_count_onepass_job,
    )

    return per_user_count_onepass_job if name == "onepass" else per_user_count_job


def run_engine(name, cluster, out, plan=None, **kwargs):
    job = jobs_for(name)("in", out)
    if name == "hadoop":
        engine = HadoopEngine(cluster, fault_plan=plan, **kwargs)
    elif name == "hop":
        engine = HOPEngine(cluster, fault_plan=plan, **kwargs)
    else:
        engine = OnePassEngine(cluster, fault_plan=plan, **kwargs)
    return engine.run(job)


ENGINES = ("hadoop", "hop", "onepass")


class TestNodeCrashRecovery:
    """A whole node dies mid-job: intermediate data, HDFS replicas, tasks."""

    @pytest.mark.parametrize("name", ENGINES)
    def test_byte_identical_after_crash(self, clicks, name):
        clean = replicated_cluster(clicks)
        run_engine(name, clean, "out")
        expected = list(clean.hdfs.read_records("out"))

        crashed = replicated_cluster(clicks)
        result = run_engine(
            name, crashed, "out", plan=FaultPlan(node_crashes={"node01": 3})
        )
        assert list(crashed.hdfs.read_records("out")) == expected
        assert result.counters[C.NODE_CRASHES] == 1
        assert result.counters[C.TASKS_RERUN] > 0
        assert result.counters[C.BLOCKS_REREPLICATED] > 0
        assert result.counters[C.T_RECOVERY] > 0

    def test_hadoop_reshuffles_lost_map_output(self, clicks):
        cluster = replicated_cluster(clicks)
        result = run_engine(
            "hadoop", cluster, "out", plan=FaultPlan(node_crashes={"node01": 3})
        )
        # Reruns re-serve segments from disk: visible as reshuffled bytes.
        assert result.counters[C.BYTES_RESHUFFLED] > 0

    @pytest.mark.parametrize("name", ("hop", "onepass"))
    def test_push_engines_replay_partition_logs(self, clicks, name):
        cluster = replicated_cluster(clicks)
        result = run_engine(
            name, cluster, "out", plan=FaultPlan(node_crashes={"node01": 3})
        )
        # Durable delivery logs were written, and recovery either replayed
        # them or restored nothing because no reducer lived on the node —
        # the crash itself must at least re-home replicas.
        assert result.counters[C.LOG_BYTES] > 0

    def test_two_crashes_survived(self, clicks):
        from repro.workloads.per_user_count import reference_user_counts

        # One record per chunk keeps the six map tasks the second crash needs.
        cluster = replicated_cluster(clicks, records_per_chunk=1)
        assert len(cluster.hdfs.input_splits("in")) == 6
        result = run_engine(
            "hadoop",
            cluster,
            "out",
            plan=FaultPlan(node_crashes={"node01": 3, "node03": 6}),
        )
        assert dict(cluster.hdfs.read_records("out")) == reference_user_counts(clicks)
        assert result.counters[C.NODE_CRASHES] == 2


class TestReduceFailureRecovery:
    @pytest.mark.parametrize("name", ENGINES)
    def test_byte_identical_after_reduce_failures(self, clicks, name):
        clean = replicated_cluster(clicks)
        run_engine(name, clean, "out")
        expected = list(clean.hdfs.read_records("out"))

        faulty = replicated_cluster(clicks)
        plan = FaultPlan(reduce_failures={0: 1, 1: 2})
        result = run_engine(name, faulty, "out", plan=plan)
        assert list(faulty.hdfs.read_records("out")) == expected
        assert result.counters[C.REDUCE_TASK_RETRIES] == 3

    def test_onepass_checkpoint_replays_less(self, clicks):
        plan = lambda: FaultPlan(reduce_failures={0: 1, 1: 1})
        full = replicated_cluster(clicks)
        full_result = run_engine("onepass", full, "out", plan=plan())
        ckpt = replicated_cluster(clicks)
        ckpt_result = run_engine(
            "onepass", ckpt, "out", plan=plan(), checkpoint_interval=3
        )
        assert list(ckpt.hdfs.read_records("out")) == list(
            full.hdfs.read_records("out")
        )
        assert ckpt_result.counters[C.CHECKPOINT_RESTORES] > 0
        assert (
            ckpt_result.counters[C.REPLAYED_RECORDS]
            < full_result.counters[C.REPLAYED_RECORDS]
        )


class TestSpeculativeExecution:
    @pytest.mark.parametrize("name", ENGINES)
    def test_slow_node_triggers_backups(self, clicks, name):
        clean = replicated_cluster(clicks)
        run_engine(name, clean, "out")
        expected = list(clean.hdfs.read_records("out"))

        slow = replicated_cluster(clicks)
        result = run_engine(
            name,
            slow,
            "out",
            plan=FaultPlan(slow_nodes={"node01": 8.0}),
            speculation=SpeculationPolicy(min_completed=1),
        )
        assert list(slow.hdfs.read_records("out")) == expected
        assert result.counters[C.SPECULATIVE_LAUNCHED] > 0
        assert result.counters[C.SPECULATIVE_WINS] > 0
        assert result.counters[C.SPECULATIVE_WASTED_MS] > 0
