"""MapReduce Online engine: pipelining, snapshots, backpressure."""

import hashlib
from dataclasses import asdict

import pytest

from repro.exec import SerialExecutor
from repro.io.disk import LocalDisk
from repro.mapreduce.api import JobConfig
from repro.mapreduce.counters import C
from repro.mapreduce.faults import FaultPlan
from repro.mapreduce.hop import HOPConfig, HOPEngine
from repro.mapreduce.runtime import HadoopEngine, LocalCluster
from repro.workloads.page_frequency import page_frequency_job, reference_page_counts
from repro.workloads.sessionization import reference_sessions, sessionization_job


class TestHOPConfig:
    def test_defaults(self):
        cfg = HOPConfig()
        assert cfg.granularity_records >= 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"granularity_records": 0},
            {"snapshot_fractions": (0.5, 0.25)},
            {"snapshot_fractions": (0.5, 0.5)},  # one snapshot taken twice over
            {"snapshot_fractions": (0.0,)},
            {"snapshot_fractions": (1.0,)},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            HOPConfig(**kwargs)


class TestHOPEngine:
    def test_final_answer_matches_reference(self, cluster, clicks):
        cluster.hdfs.write_records("clicks", clicks)
        HOPEngine(cluster).run(page_frequency_job("clicks", "out"))
        assert dict(cluster.hdfs.read_records("out")) == reference_page_counts(clicks)

    @pytest.mark.parametrize("batch", [False, True])
    def test_parse_time_is_charged(self, cluster, clicks, batch):
        # All three map kernels decode through the same front-end, so HOP's
        # map-function CPU (Table II split) includes its input parse too.
        cluster.hdfs.write_records("clicks", clicks)
        job = page_frequency_job("clicks", "out")
        job.config.batch = batch
        result = HOPEngine(cluster).run(job)
        assert result.counters[C.T_PARSE] > 0
        assert result.counters[C.T_MAP_FN] > 0
        assert result.counters[C.MAP_INPUT_RECORDS] == len(clicks)

    def test_reducer_never_combines_and_keeps_its_own_namespace(
        self, cluster, clicks, monkeypatch
    ):
        # HOP's reducer is Hadoop's in all but two observable ways: it never
        # runs the combiner on a reduce-side spill, and its runs live under
        # ``hop-reduce/``.
        cluster.hdfs.write_records("clicks", clicks)
        created = []
        create = LocalDisk.create

        def recording_create(disk, path, **kwargs):
            created.append(path)
            create(disk, path, **kwargs)

        monkeypatch.setattr(LocalDisk, "create", recording_create)
        config = JobConfig(reduce_buffer_bytes=2048, merge_factor=2)
        hop = HOPEngine(cluster, hop_config=HOPConfig(granularity_records=200)).run(
            page_frequency_job("clicks", "out", config=config)
        )
        runs = [path for path in created if "/run-" in path]
        assert hop.counters[C.REDUCE_SPILLS] > 0 and hop.counters[C.MERGE_PASSES] > 0
        assert runs and all(path.startswith("hop-reduce/") for path in runs)
        # every pair the combiner saw, it saw on the map side
        assert hop.counters[C.COMBINE_INPUT_RECORDS] == hop.counters[C.MAP_OUTPUT_RECORDS]
        assert dict(cluster.hdfs.read_records("out")) == reference_page_counts(clicks)

        del created[:]
        hadoop = HadoopEngine(cluster).run(page_frequency_job("clicks", "out2", config=config))
        runs = [path for path in created if "/run-" in path]
        assert runs and all(path.startswith("reduce/") for path in runs)
        assert hadoop.counters[C.COMBINE_INPUT_RECORDS] > hadoop.counters[C.MAP_OUTPUT_RECORDS]

    def test_snapshots_produced_at_fractions(self, cluster, clicks):
        cluster.hdfs.write_records("clicks", clicks)
        engine = HOPEngine(
            cluster, hop_config=HOPConfig(snapshot_fractions=(0.5,))
        )
        result = engine.run(page_frequency_job("clicks", "out"))
        assert [s.fraction for s in result.snapshots] == [0.5]
        assert result.counters[C.SNAPSHOTS] == 2  # one per reducer

    def test_snapshot_counts_grow_toward_final(self, cluster, clicks):
        cluster.hdfs.write_records("clicks", clicks)
        engine = HOPEngine(
            cluster, hop_config=HOPConfig(snapshot_fractions=(0.25, 0.75))
        )
        result = engine.run(page_frequency_job("clicks", "out"))
        early, late = result.snapshots
        total_early = sum(v for _, v in early.records)
        total_late = sum(v for _, v in late.records)
        assert total_early < total_late <= len(clicks)

    def test_snapshot_is_prefix_consistent(self, cluster, clicks):
        # Counts in a snapshot never exceed the final counts.
        cluster.hdfs.write_records("clicks", clicks)
        engine = HOPEngine(cluster, hop_config=HOPConfig(snapshot_fractions=(0.5,)))
        engine_result = engine.run(page_frequency_job("clicks", "out"))
        final = dict(cluster.hdfs.read_records("out"))
        snap = dict(engine_result.snapshots[0].records)
        for url, count in snap.items():
            assert count <= final[url]

    def test_sessionization_matches_hadoop_semantics(self, cluster, clicks):
        cluster.hdfs.write_records("clicks", clicks)
        HOPEngine(cluster).run(sessionization_job("clicks", "out", gap=5.0))
        got = sorted(cluster.hdfs.read_records("out"))
        assert got == reference_sessions(clicks, gap=5.0)

    def test_backpressure_stages_to_disk(self, clicks):
        cluster = LocalCluster(num_nodes=2, block_size=64 * 1024)
        cluster.hdfs.write_records("clicks", clicks)
        hop = HOPConfig(granularity_records=100, backpressure_bytes=1)
        result = HOPEngine(cluster, hop_config=hop).run(
            page_frequency_job("clicks", "out", with_combiner=False)
        )
        # With an absurdly low threshold everything past the first chunk
        # stages on the mapper's disk — counted as map spill.
        assert result.counters[C.MAP_SPILL_BYTES] > 0
        assert dict(cluster.hdfs.read_records("out")) == reference_page_counts(clicks)

    def test_pipelining_moves_sort_and_shuffle_earlier(self, cluster, clicks):
        # HOP produces shuffle traffic during the map phase by design;
        # we simply verify shuffle bytes exist and snapshots cost merge reads.
        cluster.hdfs.write_records("clicks", clicks)
        hop = HOPConfig(granularity_records=200, snapshot_fractions=(0.5,))
        result = HOPEngine(cluster, hop_config=hop).run(
            page_frequency_job("clicks", "out", with_combiner=False)
        )
        assert result.counters[C.SHUFFLE_BYTES] > 0
        assert result.counters[C.SORT_RECORDS] > 0


class RecordingExecutor:
    """Serial execution that logs every wave as ``(kernel, spec partitions)``."""

    name = "serial"
    workers = 1

    def __init__(self):
        self.waves = []

    def session(self, context):
        session = SerialExecutor().session(context)
        run_batch = session.run_batch

        def recording(kernel, specs):
            self.waves.append((kernel, [getattr(spec, "partition", None) for spec in specs]))
            return run_batch(kernel, specs)

        session.run_batch = recording
        return session


class TestHOPReducesThroughTheKernel:
    """HOP's final reduce is Hadoop's: the ``hadoop_reduce`` kernel."""

    def reduce_waves(self, cluster, clicks, plan):
        cluster.hdfs.write_records("clicks", clicks)
        executor = RecordingExecutor()
        HOPEngine(cluster, fault_plan=plan, executor=executor).run(
            page_frequency_job("clicks", "out")
        )
        assert dict(cluster.hdfs.read_records("out")) == reference_page_counts(clicks)
        return [partitions for kernel, partitions in executor.waves if kernel == "hadoop_reduce"]

    def test_clean_run_is_one_wave_over_every_partition(self, cluster, clicks):
        assert self.reduce_waves(cluster, clicks, None) == [[0, 1]]

    def test_under_a_plan_each_attempt_is_a_wave_of_one(self, cluster, clicks):
        # partition 0's first attempt dies and is retried
        plan = FaultPlan(reduce_failures={0: 1})
        assert self.reduce_waves(cluster, clicks, plan) == [[0], [0], [1]]

    #: The run below, pinned: per-device ``DiskStats`` as
    #: ``(bytes_read, bytes_written, read_ops, write_ops, random_ops,
    #: sequential_ops, deletes, busy_time)``.
    PINNED_DISKS = {
        "node00.hdd": (491483, 424178, 49, 43, 73, 19, 40, 0.6302026930914985),
        "node01.hdd": (478842, 412377, 48, 42, 70, 20, 40, 0.6044436963399255),
        "node02.hdd": (72000, 72000, 1, 1, 1, 1, 0, 0.01002587890625),
    }

    @pytest.mark.parametrize("executor", ["serial", "processes:2"])
    def test_reduce_side_spills_and_merges_never_combine(self, cluster, clicks, executor):
        # A combiner job whose reducers spill and run merge passes: the
        # kernel must spill HOP's pushed lists uncombined, under HOP's
        # namespace, to the same bytes.
        cluster.hdfs.write_records("clicks", clicks)
        config = JobConfig(reduce_buffer_bytes=2048, merge_factor=2)
        result = HOPEngine(
            cluster, hop_config=HOPConfig(granularity_records=200), executor=executor
        ).run(page_frequency_job("clicks", "out", config=config))
        output = list(cluster.hdfs.read_records("out"))
        assert hashlib.sha256(repr(output).encode()).hexdigest()[:16] == "2e96d62691af0602"
        counters = result.counters
        assert {
            name: counters[name]
            for name in (
                C.COMBINE_INPUT_RECORDS,
                C.COMBINE_OUTPUT_RECORDS,
                C.REDUCE_SPILL_BYTES,
                C.REDUCE_SPILLS,
                C.MERGE_PASSES,
                C.MERGE_READ_BYTES,
                C.MERGE_WRITE_BYTES,
            )
        } == {
            C.COMBINE_INPUT_RECORDS: 8000,
            C.COMBINE_OUTPUT_RECORDS: 2857,
            C.REDUCE_SPILL_BYTES: 99995,
            C.REDUCE_SPILLS: 42,
            C.MERGE_PASSES: 38,
            C.MERGE_READ_BYTES: 814415,
            C.MERGE_WRITE_BYTES: 580650,
        }
        assert counters[C.COMBINE_INPUT_RECORDS] == counters[C.MAP_OUTPUT_RECORDS]
        disks = {name: tuple(asdict(st).values()) for name, st in cluster.disk_stats().items()}
        assert disks.keys() == self.PINNED_DISKS.keys()
        for name, pinned in self.PINNED_DISKS.items():
            # busy_time is a float sum: its last digit follows summation order
            assert disks[name][:-1] == pinned[:-1], name
            assert disks[name][-1] == pytest.approx(pinned[-1], rel=1e-12), name
