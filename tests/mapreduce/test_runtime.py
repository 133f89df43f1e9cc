"""LocalCluster construction and full HadoopEngine runs."""

import pytest

from repro.mapreduce.api import JobConfig, MapReduceJob
from repro.mapreduce.counters import C
from repro.mapreduce.hop import HOPEngine
from repro.mapreduce.runtime import HadoopEngine, LocalCluster
from repro.obs.analyze import analyze_tracer
from repro.obs.tracer import Tracer
from repro.workloads.page_frequency import page_frequency_job, reference_page_counts
from repro.workloads.per_user_count import per_user_count_job, reference_user_counts
from repro.workloads.clickstream import click_text_codec


class TestLocalCluster:
    def test_default_colocated(self):
        c = LocalCluster(num_nodes=4)
        assert c.compute_node_names == c.storage_node_names
        assert not c.separate_storage

    def test_ssd_cluster_routes_intermediate(self):
        c = LocalCluster(num_nodes=2, with_ssd=True)
        node = c.node("node00")
        assert node.intermediate == "ssd"
        assert node.intermediate_disk is node.disks["ssd"]
        assert node.hdfs_disk is node.disks["hdd"]

    def test_separate_storage_cluster(self):
        c = LocalCluster(num_nodes=4, storage_nodes=2)
        assert c.separate_storage
        assert len(c.storage_node_names) == 2
        assert len(c.compute_node_names) == 2
        assert set(c.hdfs.datanodes) == set(c.storage_node_names)

    def test_storage_nodes_must_leave_compute(self):
        with pytest.raises(ValueError):
            LocalCluster(num_nodes=2, storage_nodes=2)

    def test_disk_stats_keys(self):
        c = LocalCluster(num_nodes=2, with_ssd=True)
        stats = c.disk_stats()
        assert "node00.hdd" in stats and "node00.ssd" in stats

    def test_total_disk_stats_aggregates(self, clicks):
        c = LocalCluster(num_nodes=2, block_size=32 * 1024)
        c.hdfs.write_records("clicks", clicks[:1000])
        total = c.total_disk_stats()
        assert total.bytes_written > 0


class TestHadoopEngine:
    def test_page_frequency_correct(self, cluster, clicks):
        cluster.hdfs.write_records("clicks", clicks)
        result = HadoopEngine(cluster).run(page_frequency_job("clicks", "out"))
        got = dict(cluster.hdfs.read_records("out"))
        assert got == reference_page_counts(clicks)
        assert result.output_records == len(got)

    def test_per_user_count_without_combiner_matches(self, cluster, clicks):
        cluster.hdfs.write_records("clicks", clicks)
        job = per_user_count_job("clicks", "out", with_combiner=False)
        HadoopEngine(cluster).run(job)
        assert dict(cluster.hdfs.read_records("out")) == reference_user_counts(clicks)

    def test_counters_populated(self, cluster, clicks):
        cluster.hdfs.write_records("clicks", clicks)
        result = HadoopEngine(cluster).run(page_frequency_job("clicks", "out"))
        c = result.counters
        assert c[C.MAP_INPUT_RECORDS] == len(clicks)
        assert c[C.MAP_TASKS] == len(cluster.hdfs.input_splits("clicks"))
        assert c[C.REDUCE_TASKS] == 2
        assert c[C.T_SORT] > 0
        assert c[C.MAP_OUTPUT_BYTES] > 0
        assert result.wall_time > 0
        assert set(result.phase_times) == {"map", "reduce"}

    def test_text_input(self, cluster, clicks):
        cluster.hdfs.write_records("clicks", clicks, codec=click_text_codec())
        result = HadoopEngine(cluster).run(page_frequency_job("clicks", "out"))
        assert dict(cluster.hdfs.read_records("out")) == reference_page_counts(clicks)
        assert result.counters[C.T_PARSE] > 0

    def test_more_reducers_same_answer(self, cluster, clicks):
        cluster.hdfs.write_records("clicks", clicks)
        job = page_frequency_job("clicks", "out", config=JobConfig(num_reducers=5))
        HadoopEngine(cluster).run(job)
        assert dict(cluster.hdfs.read_records("out")) == reference_page_counts(clicks)

    def test_missing_paths_rejected(self, cluster):
        job = MapReduceJob("j", lambda r: [(r, 1)], lambda k, v: [(k, sum(v))])
        with pytest.raises(ValueError):
            HadoopEngine(cluster).run(job)

    def test_separate_storage_counts_remote_reads(self, clicks):
        c = LocalCluster(num_nodes=3, storage_nodes=1, block_size=64 * 1024)
        c.hdfs.write_records("clicks", clicks[:2000])
        result = HadoopEngine(c).run(page_frequency_job("clicks", "out"))
        assert result.schedule is not None
        assert result.schedule.locality_rate == 0.0
        assert result.network_bytes > 0
        assert dict(c.hdfs.read_records("out")) == reference_page_counts(clicks[:2000])


class TestSortHistogram:
    @pytest.mark.parametrize("executor", [None, "processes:2"])
    def test_one_observation_per_map_spill(self, cluster, clicks, executor):
        # ``map.sort.records`` is read off the worker-side ``sort`` spans,
        # one per buffer sort, absorbed with the rest of the task's trace.
        cluster.hdfs.write_records("clicks", clicks[:3000])
        job = per_user_count_job(
            "clicks", "out", config=JobConfig(map_buffer_bytes=16 * 1024)
        )
        tracer = Tracer()
        result = HadoopEngine(cluster, executor=executor, tracer=tracer).run(job)
        sort_sizes = analyze_tracer(tracer)["metrics"]["map.sort.records"]
        assert sort_sizes["count"] == result.counters[C.MAP_SPILLS]
        assert sort_sizes["count"] > result.counters[C.MAP_TASKS]
        assert sort_sizes["total"] == result.counters[C.SORT_RECORDS]

    def test_hop_sort_spans_feed_the_same_histogram(self, cluster, clicks):
        # HOP sorts its mini-chunks under the same ``sort`` span; before the
        # view was derived it never observed the histogram those spans imply.
        cluster.hdfs.write_records("clicks", clicks[:3000])
        tracer = Tracer()
        result = HOPEngine(cluster, tracer=tracer).run(per_user_count_job("clicks", "out"))
        sort_sizes = analyze_tracer(tracer)["metrics"]["map.sort.records"]
        assert sort_sizes["count"] == sum(s.name == "sort" for s in tracer.spans) > 0
        assert sort_sizes["total"] == result.counters[C.SORT_RECORDS]
