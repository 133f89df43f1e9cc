"""The one-pass engine end-to-end, across modes and workload shapes."""

import pytest

from repro.core.aggregates import COUNT, SUM
from repro.core.engine import OnePassConfig, OnePassEngine, OnePassJob
from repro.core.incremental import count_threshold_policy
from repro.mapreduce.counters import C
from repro.mapreduce.runtime import LocalCluster
from repro.workloads.inverted_index import inverted_index_onepass_job, reference_index
from repro.workloads.page_frequency import (
    page_frequency_onepass_job,
    reference_page_counts,
)
from repro.workloads.per_user_count import (
    per_user_count_onepass_job,
    reference_user_counts,
)
from repro.workloads.sessionization import (
    reference_sessions,
    sessionization_onepass_job,
)


def count_map(record):
    yield (record, 1)


class TestOnePassConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_reducers": 0},
            {"mode": "bogus"},
            {"hotset_capacity": 0},
            {"map_memory_bytes": 0},
            {"spill_partitions": 1},
            {"spill_partitions": 1, "mode": "hotset"},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            OnePassConfig(**kwargs)


class TestOnePassJobValidation:
    def test_exactly_one_of_aggregator_reduce(self):
        with pytest.raises(ValueError):
            OnePassJob("j", count_map)
        with pytest.raises(ValueError):
            OnePassJob(
                "j",
                count_map,
                aggregator=COUNT,
                reduce_fn=lambda k, v: [(k, sum(v))],
            )

    def test_map_slice_must_be_callable_or_none(self):
        with pytest.raises(TypeError, match="map_slice"):
            OnePassJob("j", count_map, aggregator=COUNT, map_slice="nope")  # type: ignore[arg-type]
        assert OnePassJob("j", count_map, aggregator=COUNT).map_slice is None

    def test_grouping_requires_hybrid_mode(self):
        with pytest.raises(ValueError):
            OnePassJob(
                "j",
                count_map,
                reduce_fn=lambda k, v: [(k, sum(v))],
                config=OnePassConfig(mode="incremental"),
            )

    def test_emit_policy_requires_aggregator(self):
        with pytest.raises(ValueError):
            OnePassJob(
                "j",
                count_map,
                reduce_fn=lambda k, v: [(k, sum(v))],
                emit_policy=count_threshold_policy(2),
                config=OnePassConfig(mode="hybrid"),
            )


class TestModesCorrectness:
    @pytest.mark.parametrize("mode", ["incremental", "hybrid", "hotset"])
    @pytest.mark.parametrize("map_side_combine", [True, False])
    def test_page_frequency_all_modes(self, cluster, clicks, mode, map_side_combine):
        cluster.hdfs.write_records("clicks", clicks)
        cfg = OnePassConfig(
            mode=mode, map_side_combine=map_side_combine, hotset_capacity=64
        )
        out = f"out-{mode}-{map_side_combine}"
        OnePassEngine(cluster).run(page_frequency_onepass_job("clicks", out, config=cfg))
        assert dict(cluster.hdfs.read_records(out)) == reference_page_counts(clicks)

    def test_per_user_count(self, cluster, clicks):
        cluster.hdfs.write_records("clicks", clicks)
        OnePassEngine(cluster).run(per_user_count_onepass_job("clicks", "out"))
        assert dict(cluster.hdfs.read_records("out")) == reference_user_counts(clicks)

    def test_sessionization(self, cluster, clicks):
        cluster.hdfs.write_records("clicks", clicks)
        OnePassEngine(cluster).run(
            sessionization_onepass_job("clicks", "out", gap=5.0)
        )
        got = sorted(cluster.hdfs.read_records("out"))
        assert got == reference_sessions(clicks, gap=5.0)

    def test_inverted_index(self, cluster, documents):
        cluster.hdfs.write_records("docs", documents)
        OnePassEngine(cluster).run(inverted_index_onepass_job("docs", "ix"))
        assert dict(cluster.hdfs.read_records("ix")) == reference_index(documents)

    def test_memory_constrained_incremental_still_exact(self, cluster, clicks):
        cluster.hdfs.write_records("clicks", clicks)
        cfg = OnePassConfig(
            mode="incremental", reduce_memory_bytes=8192, map_side_combine=False
        )
        result = OnePassEngine(cluster).run(
            per_user_count_onepass_job("clicks", "out", config=cfg)
        )
        assert dict(cluster.hdfs.read_records("out")) == reference_user_counts(clicks)
        assert result.counters[C.REDUCE_SPILL_BYTES] > 0


class TestEngineObservables:
    def test_no_sorting_ever(self, cluster, clicks):
        cluster.hdfs.write_records("clicks", clicks)
        result = OnePassEngine(cluster).run(
            page_frequency_onepass_job("clicks", "out")
        )
        assert result.counters[C.T_SORT] == 0
        assert result.counters[C.SORT_RECORDS] == 0
        assert result.counters[C.T_HASH] > 0

    def test_early_emission_through_engine(self, cluster, clicks):
        cluster.hdfs.write_records("clicks", clicks)
        threshold = 20
        job = OnePassJob(
            "threshold-count",
            lambda click: [(click[2], 1)],
            aggregator=COUNT,
            emit_policy=count_threshold_policy(threshold),
            config=OnePassConfig(mode="incremental", map_side_combine=False),
            input_path="clicks",
            output_path="out",
        )
        result = OnePassEngine(cluster).run(job)
        early = result.extras["early_emitted"]
        ref = reference_page_counts(clicks)
        expected_keys = {url for url, n in ref.items() if n >= threshold}
        assert {k for k, _ in early} == expected_keys
        for key, value in early:
            assert value == threshold  # emitted exactly at the crossing

    def test_hotset_approximate_results_exposed(self, cluster, clicks):
        cluster.hdfs.write_records("clicks", clicks)
        cfg = OnePassConfig(mode="hotset", hotset_capacity=16, map_side_combine=False)
        result = OnePassEngine(cluster).run(
            per_user_count_onepass_job("clicks", "out", config=cfg)
        )
        approx = result.extras["approximate_results"]
        assert approx  # hot users reported before finalisation
        ref = reference_user_counts(clicks)
        for a in approx:
            assert a.result <= ref[a.key]

    def test_counters_and_phases(self, cluster, clicks):
        cluster.hdfs.write_records("clicks", clicks)
        result = OnePassEngine(cluster).run(
            page_frequency_onepass_job("clicks", "out")
        )
        assert result.counters[C.MAP_INPUT_RECORDS] == len(clicks)
        assert set(result.phase_times) == {"map", "reduce"}
        assert result.engine == "onepass"

    def test_missing_paths_rejected(self, cluster):
        job = OnePassJob("j", count_map, aggregator=COUNT)
        with pytest.raises(ValueError):
            OnePassEngine(cluster).run(job)

    def test_finalize_shapes_output(self, cluster, clicks):
        cluster.hdfs.write_records("clicks", clicks)
        job = OnePassJob(
            "labelled",
            lambda click: [(click[2], 1)],
            aggregator=SUM,
            finalize=lambda key, result: [f"{key}={result}"],
            input_path="clicks",
            output_path="out",
        )
        OnePassEngine(cluster).run(job)
        lines = list(cluster.hdfs.read_records("out"))
        assert all(isinstance(line, str) and "=" in line for line in lines)
