"""Cross-engine agreement: the portability claim, exercised end to end.

The same analytical query must yield identical answers on the sort-merge
baseline, MapReduce Online and the hash-based one-pass engine — that is
what justifies swapping the implementation beneath the MapReduce API.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import OnePassConfig, OnePassEngine
from repro.mapreduce.api import JobConfig
from repro.mapreduce.counters import C
from repro.mapreduce.hop import HOPConfig, HOPEngine
from repro.mapreduce.runtime import HadoopEngine, LocalCluster
from repro.workloads.inverted_index import (
    inverted_index_job,
    inverted_index_onepass_job,
    reference_index,
)
from repro.workloads.page_frequency import (
    page_frequency_job,
    page_frequency_onepass_job,
    reference_page_counts,
)
from repro.workloads.per_user_count import (
    per_user_count_job,
    per_user_count_onepass_job,
    reference_user_counts,
)
from repro.workloads.sessionization import (
    reference_sessions,
    sessionization_job,
    sessionization_onepass_job,
)


def fresh_cluster(records, path="in", **kwargs):
    cluster = LocalCluster(num_nodes=3, block_size=48 * 1024, **kwargs)
    cluster.hdfs.write_records(path, records)
    return cluster


class TestFourWorkloadsThreeEngines:
    def test_page_frequency(self, clicks):
        cluster = fresh_cluster(clicks)
        ref = reference_page_counts(clicks)
        HadoopEngine(cluster).run(page_frequency_job("in", "o1"))
        HOPEngine(cluster).run(page_frequency_job("in", "o2"))
        OnePassEngine(cluster).run(page_frequency_onepass_job("in", "o3"))
        for out in ("o1", "o2", "o3"):
            assert dict(cluster.hdfs.read_records(out)) == ref

    def test_per_user_count(self, clicks):
        cluster = fresh_cluster(clicks)
        ref = reference_user_counts(clicks)
        HadoopEngine(cluster).run(per_user_count_job("in", "o1"))
        HOPEngine(cluster).run(per_user_count_job("in", "o2"))
        OnePassEngine(cluster).run(per_user_count_onepass_job("in", "o3"))
        for out in ("o1", "o2", "o3"):
            assert dict(cluster.hdfs.read_records(out)) == ref

    def test_sessionization(self, clicks):
        cluster = fresh_cluster(clicks)
        ref = reference_sessions(clicks, gap=5.0)
        HadoopEngine(cluster).run(sessionization_job("in", "o1", gap=5.0))
        HOPEngine(cluster).run(sessionization_job("in", "o2", gap=5.0))
        OnePassEngine(cluster).run(sessionization_onepass_job("in", "o3", gap=5.0))
        for out in ("o1", "o2", "o3"):
            assert sorted(cluster.hdfs.read_records(out)) == ref

    def test_inverted_index(self, documents):
        cluster = fresh_cluster(documents)
        ref = reference_index(documents)
        HadoopEngine(cluster).run(inverted_index_job("in", "o1"))
        HOPEngine(cluster).run(inverted_index_job("in", "o2"))
        OnePassEngine(cluster).run(inverted_index_onepass_job("in", "o3"))
        for out in ("o1", "o2", "o3"):
            assert dict(cluster.hdfs.read_records(out)) == ref


def _count_map(record):
    yield record, 1


def _sum_reduce(key, values):
    yield key, sum(values)


class TestEqualKeysMeet:
    """``1 == 1.0 == True``: the group-by must not depend on the reducer count."""

    KEYS = [1, 1.0, True, 0, 0.0, -0.0, 2, 2.0, 1.5] * 3

    @pytest.mark.parametrize("reducers", range(1, 9))
    def test_three_engines_equal_a_dict_group_by(self, reducers):
        from repro.core.aggregates import SUM
        from repro.core.engine import OnePassJob
        from repro.mapreduce.api import MapReduceJob

        ref = {}
        for key in self.KEYS:
            ref[key] = ref.get(key, 0) + 1
        assert len(ref) == 4
        cluster = LocalCluster(num_nodes=3, block_size=256)
        cluster.hdfs.write_records("in", self.KEYS, records_per_chunk=4)

        def mr_job(out):
            return MapReduceJob(
                "count", _count_map, _sum_reduce, input_path="in", output_path=out,
                config=JobConfig(num_reducers=reducers),
            )

        HadoopEngine(cluster).run(mr_job("o1"))
        HOPEngine(cluster).run(mr_job("o2"))
        for out, shape in (("o3", {"aggregator": SUM}), ("o4", {"reduce_fn": _sum_reduce})):
            cfg = OnePassConfig(
                mode="hybrid", num_reducers=reducers, map_side_combine="aggregator" in shape
            )
            OnePassEngine(cluster).run(
                OnePassJob(
                    "count", _count_map, input_path="in", output_path=out, config=cfg, **shape
                )
            )
        for out in ("o1", "o2", "o3", "o4"):
            records = list(cluster.hdfs.read_records(out))
            assert len(records) == len(ref), (out, records)
            assert dict(records) == ref, out


class TestConfigurationInvariance:
    """Answers must not depend on tuning knobs, only on the data."""

    @pytest.mark.parametrize("reducers", [1, 3, 7])
    def test_reducer_count(self, clicks, reducers):
        cluster = fresh_cluster(clicks)
        job = page_frequency_job("in", "out", config=JobConfig(num_reducers=reducers))
        HadoopEngine(cluster).run(job)
        assert dict(cluster.hdfs.read_records("out")) == reference_page_counts(clicks)

    @pytest.mark.parametrize("buffer_bytes", [1024, 64 * 1024, 16 * 1024 * 1024])
    def test_map_buffer_size(self, clicks, buffer_bytes):
        cluster = fresh_cluster(clicks)
        job = per_user_count_job(
            "in", "out", config=JobConfig(map_buffer_bytes=buffer_bytes)
        )
        HadoopEngine(cluster).run(job)
        assert dict(cluster.hdfs.read_records("out")) == reference_user_counts(clicks)

    @pytest.mark.parametrize("merge_factor", [2, 3, 10])
    def test_merge_factor(self, clicks, merge_factor):
        cluster = fresh_cluster(clicks)
        job = per_user_count_job(
            "in",
            "out",
            with_combiner=False,
            config=JobConfig(
                merge_factor=merge_factor, reduce_buffer_bytes=16 * 1024
            ),
        )
        HadoopEngine(cluster).run(job)
        assert dict(cluster.hdfs.read_records("out")) == reference_user_counts(clicks)

    @pytest.mark.parametrize("granularity", [50, 500, 50_000])
    def test_hop_granularity(self, clicks, granularity):
        cluster = fresh_cluster(clicks)
        HOPEngine(
            cluster, hop_config=HOPConfig(granularity_records=granularity)
        ).run(page_frequency_job("in", "out"))
        assert dict(cluster.hdfs.read_records("out")) == reference_page_counts(clicks)

    @pytest.mark.parametrize("memory", [4 * 1024, 256 * 1024, 64 * 1024 * 1024])
    def test_onepass_reduce_memory(self, clicks, memory):
        cluster = fresh_cluster(clicks)
        cfg = OnePassConfig(
            mode="incremental", reduce_memory_bytes=memory, map_side_combine=False
        )
        OnePassEngine(cluster).run(
            per_user_count_onepass_job("in", "out", config=cfg)
        )
        assert dict(cluster.hdfs.read_records("out")) == reference_user_counts(clicks)


class TestAgreementUnderRandomFaults:
    """The portability claim must survive a hostile cluster.

    Each engine runs under its *own* FaultPlan instance derived from the
    same seed (plans are stateful), so all three see the same injected
    map/reduce failures, shuffle faults and node crash — and must still
    produce exactly the answer of a fault-free run.
    """

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", [7, 23, 51])
    def test_three_engines_agree_under_faults(self, clicks, seed):
        from repro.mapreduce.faults import FaultPlan

        def cluster():
            c = LocalCluster(num_nodes=4, block_size=64 * 1024, replication=2)
            c.hdfs.write_records("in", clicks)
            return c

        probe = cluster()
        n_tasks = len(probe.hdfs.input_splits("in"))

        def plan():
            return FaultPlan.random(
                seed=seed,
                num_map_tasks=n_tasks,
                num_reducers=2,
                nodes=probe.nodes,
                shuffle_failure_rate=0.05,
                crash_after=3,
            )

        ref = reference_user_counts(clicks)
        runs = {
            "hadoop": lambda c: HadoopEngine(c, fault_plan=plan()).run(
                per_user_count_job("in", "out")
            ),
            "hop": lambda c: HOPEngine(c, fault_plan=plan()).run(
                per_user_count_job("in", "out")
            ),
            "onepass": lambda c: OnePassEngine(
                c, fault_plan=plan(), checkpoint_interval=4
            ).run(per_user_count_onepass_job("in", "out")),
        }
        for name, run in runs.items():
            faulty = cluster()
            run(faulty)
            assert dict(faulty.hdfs.read_records("out")) == ref, name

    def test_faulty_run_matches_clean_run_exactly(self, clicks):
        """Not just the same dict — the same bytes, in the same order."""
        from repro.mapreduce.faults import FaultPlan

        for engine_cls, job in (
            (HadoopEngine, per_user_count_job),
            (HOPEngine, per_user_count_job),
            (OnePassEngine, per_user_count_onepass_job),
        ):
            def cluster():
                c = LocalCluster(num_nodes=4, block_size=64 * 1024, replication=2)
                c.hdfs.write_records("in", clicks)
                return c

            clean_cluster = cluster()
            engine_cls(clean_cluster).run(job("in", "out"))
            expected = list(clean_cluster.hdfs.read_records("out"))

            faulty_cluster = cluster()
            plan = FaultPlan(
                map_failures={0: 1, 2: 1},
                reduce_failures={1: 1},
                node_crashes={"node02": 4},
            )
            engine_cls(faulty_cluster, fault_plan=plan).run(job("in", "out"))
            assert (
                list(faulty_cluster.hdfs.read_records("out")) == expected
            ), engine_cls.__name__


def _workload_jobs(workload):
    """Return (sortmerge_job_fn, onepass_job_fn, fixture_name)."""
    if workload == "sessionization":
        return (
            lambda i, o: sessionization_job(i, o, gap=5.0),
            lambda i, o: sessionization_onepass_job(i, o, gap=5.0),
            "clicks",
        )
    if workload == "page-frequency":
        return page_frequency_job, page_frequency_onepass_job, "clicks"
    if workload == "per-user-count":
        return per_user_count_job, per_user_count_onepass_job, "clicks"
    return inverted_index_job, inverted_index_onepass_job, "documents"


def _run_with_executor(engine, cluster, workload, executor, **engine_kwargs):
    sm_job, op_job, _ = _workload_jobs(workload)
    if engine == "hadoop":
        return HadoopEngine(cluster, executor=executor, **engine_kwargs).run(
            sm_job("in", "out")
        )
    if engine == "hop":
        return HOPEngine(cluster, executor=executor, **engine_kwargs).run(
            sm_job("in", "out")
        )
    return OnePassEngine(cluster, executor=executor, **engine_kwargs).run(
        op_job("in", "out")
    )


def _snapshot(cluster, result, out="out"):
    """Everything a run observably produced, minus wall-clock timers."""
    counters = {
        k: v
        for k, v in result.counters.as_dict().items()
        if not k.startswith("time.")
    }
    return (
        list(cluster.hdfs.read_records(out)),
        cluster.hdfs.file_bytes(out),
        counters,
        result.output_records,
    )


class TestExecutorDeterminism:
    """Executors must be interchangeable, not merely equivalent.

    Threaded and multiprocess execution must reproduce the serial run
    byte for byte — same output records in the same order, same HDFS file
    bytes, and the same counters (wall-clock ``time.*`` timers excluded,
    as they are the one legitimately nondeterministic observable).
    """

    EXECUTORS = ("threads:2", "processes:2")
    WORKLOADS = (
        "page-frequency",
        "per-user-count",
        "sessionization",
        "inverted-index",
    )

    @pytest.mark.slow
    @pytest.mark.parametrize("workload", WORKLOADS)
    @pytest.mark.parametrize("engine", ["hadoop", "hop", "onepass"])
    def test_byte_identical_across_executors(self, request, engine, workload):
        records = request.getfixturevalue(_workload_jobs(workload)[2])

        def run(executor):
            cluster = fresh_cluster(records)
            result = _run_with_executor(engine, cluster, workload, executor)
            return _snapshot(cluster, result)

        reference = run(None)
        for executor in self.EXECUTORS:
            assert run(executor) == reference, (engine, workload, executor)

    @pytest.mark.slow
    @pytest.mark.parametrize("engine", ["hadoop", "hop", "onepass"])
    def test_byte_identical_under_seeded_faults(self, clicks, engine):
        """Parallel executors must also replay fault injection exactly:
        the FaultPlan is consulted on the coordinator, so worker count
        cannot change which attempts die or what recovery rebuilds."""
        from repro.mapreduce.faults import FaultPlan

        def cluster():
            c = LocalCluster(num_nodes=4, block_size=64 * 1024, replication=2)
            c.hdfs.write_records("in", clicks)
            return c

        n_tasks = len(cluster().hdfs.input_splits("in"))

        def run(executor):
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
            result = _run_with_executor(
                engine, c, "per-user-count", executor, **kwargs
            )
            return _snapshot(c, result)

        reference = run(None)
        for executor in self.EXECUTORS:
            assert run(executor) == reference, (engine, executor)


class TestSpillPressure:
    """The memory-pressure cells of ``test_batch_determinism`` against the
    reference answer: reduce-side spills and merges, hash freezes and sheds."""

    @pytest.mark.parametrize("engine", ["hadoop", "hop"])
    def test_sortmerge_spilling_config(self, clicks, engine):
        config = JobConfig(reduce_buffer_bytes=8 * 1024, merge_factor=2)
        kwargs = {"hop_config": HOPConfig(granularity_records=100)} if engine == "hop" else {}
        cluster = fresh_cluster(clicks)
        engine_cls = HadoopEngine if engine == "hadoop" else HOPEngine
        result = engine_cls(cluster, **kwargs).run(per_user_count_job("in", "out", config=config))
        assert dict(cluster.hdfs.read_records("out")) == reference_user_counts(clicks)
        assert result.counters[C.REDUCE_SPILLS] > 3

    @pytest.mark.parametrize("mode", ["incremental", "hybrid", "hotset"])
    def test_onepass_constrained_memory(self, clicks, mode):
        config = OnePassConfig(
            mode=mode,
            map_memory_bytes=16 * 1024,
            reduce_memory_bytes=32 * 1024,
            map_side_combine=False,
            hotset_capacity=64,  # 400 users fit the default hot set: nothing would be evicted
        )
        cluster = fresh_cluster(clicks)
        result = OnePassEngine(cluster).run(per_user_count_onepass_job("in", "out", config=config))
        assert dict(cluster.hdfs.read_records("out")) == reference_user_counts(clicks)
        counters = result.counters
        if mode == "incremental":  # the table crossed its budget, so the task froze it
            assert counters[C.HASH_STATE_BYTES_PEAK] > config.reduce_memory_bytes
        else:
            assert counters[C.REDUCE_SPILLS] > 0
            assert mode == "hybrid" or counters[C.HOT_EVICTIONS] > 0


@pytest.mark.slow
class TestPropertyRandomStreams:
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(50, 800),
        users=st.integers(1, 40),
    )
    @settings(max_examples=12, deadline=None)
    def test_engines_agree_on_random_streams(self, seed, n, users):
        from repro.workloads.clickstream import ClickStreamConfig, generate_clicks

        clicks = list(
            generate_clicks(
                ClickStreamConfig(
                    num_clicks=n, num_users=users, num_urls=20, seed=seed
                )
            )
        )
        cluster = fresh_cluster(clicks)
        ref = reference_user_counts(clicks)
        HadoopEngine(cluster).run(per_user_count_job("in", "o1"))
        OnePassEngine(cluster).run(per_user_count_onepass_job("in", "o2"))
        assert dict(cluster.hdfs.read_records("o1")) == ref
        assert dict(cluster.hdfs.read_records("o2")) == ref
