"""Text-vs-binary input (§III.B.1) and one-pass streaming behaviour."""

from repro.core.engine import OnePassConfig, OnePassEngine
from repro.core.incremental import count_threshold_policy
from repro.mapreduce.counters import C
from repro.mapreduce.runtime import HadoopEngine, LocalCluster
from repro.workloads.clickstream import click_text_codec
from repro.workloads.page_frequency import (
    page_frequency_job,
    page_frequency_onepass_job,
    reference_page_counts,
)


class TestParsingCostExperiment:
    def test_text_and_binary_same_answer(self, clicks):
        ref = reference_page_counts(clicks)
        for codec in (None, click_text_codec()):
            cluster = LocalCluster(num_nodes=2, block_size=48 * 1024)
            if codec is None:
                cluster.hdfs.write_records("in", clicks)
            else:
                cluster.hdfs.write_records("in", clicks, codec=codec)
            HadoopEngine(cluster).run(page_frequency_job("in", "out"))
            assert dict(cluster.hdfs.read_records("out")) == ref

    def test_parse_time_tracked_for_text(self, clicks):
        cluster = LocalCluster(num_nodes=2, block_size=48 * 1024)
        cluster.hdfs.write_records("in", clicks, codec=click_text_codec())
        result = HadoopEngine(cluster).run(page_frequency_job("in", "out"))
        assert result.counters[C.T_PARSE] > 0


class TestIncrementalAnswersVsBatch:
    def test_early_answers_are_a_subset_of_final(self, clicks):
        cluster = LocalCluster(num_nodes=2, block_size=48 * 1024)
        cluster.hdfs.write_records("in", clicks)
        threshold = 15
        job = page_frequency_onepass_job(
            "in",
            "out",
            config=OnePassConfig(mode="incremental", map_side_combine=False),
        )
        job.emit_policy = count_threshold_policy(threshold)
        result = OnePassEngine(cluster).run(job)
        final = dict(cluster.hdfs.read_records("out"))
        early_keys = {k for k, _ in result.extras["early_emitted"]}
        final_matching = {k for k, v in final.items() if v >= threshold}
        assert early_keys == final_matching

    def test_batch_engine_needs_filter_at_end(self, clicks):
        # The baseline can answer the same query, but only after the
        # blocking merge: no early_emitted ever exists.
        cluster = LocalCluster(num_nodes=2, block_size=48 * 1024)
        cluster.hdfs.write_records("in", clicks)
        result = HadoopEngine(cluster).run(page_frequency_job("in", "out"))
        assert "early_emitted" not in result.extras
