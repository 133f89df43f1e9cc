"""MapReduce Online internals: the pipelined map and reduce tasks in isolation."""

from dataclasses import fields
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exec.kernels import HadoopReduceSpec, reduce_spec
from repro.io.runio import stream_run
from repro.mapreduce import hop, sortmerge
from repro.mapreduce.api import JobConfig, MapReduceJob
from repro.mapreduce.counters import C
from repro.mapreduce.faults import FaultPlan
from repro.mapreduce.counters import Counters
from repro.mapreduce.hop import HOPConfig, HOPEngine, _ChunkBuffer, take_snapshot
from repro.mapreduce.merge import MultiPassMerger
from repro.mapreduce import partition
from repro.mapreduce.partition import hash_partitioner
from repro.mapreduce.runtime import HadoopEngine, LocalCluster

from tests.mapreduce.test_framing import _budget_job, _click_records
from tests.mapreduce.test_sortmerge import UNORDERABLE, concat_combine, reference_spill


def sum_reduce(key, values):
    yield (key, sum(values))


def make_task(**cfg):
    """HOP's reducer as the engine builds it, for a job with a combiner."""
    job = MapReduceJob(
        "wc",
        lambda r: [(r, 1)],
        sum_reduce,
        combine_fn=sum_reduce,
        config=JobConfig(num_reducers=1, **cfg),
    )
    engine = HOPEngine(LocalCluster(num_nodes=1))
    return engine._new_reduce_task(SimpleNamespace(job=job), 0, "node00")


class TestPipelinedReduceTask:
    def chunk(self, pairs):
        return sorted(pairs, key=lambda p: p[0]), 48 * len(pairs)

    def test_is_hadoops_reduce_task_plus_push_and_snapshots(self):
        # One sort-merge reduce task: HOP hands it two facts — its run
        # namespace and a combiner-free spill — and takes snapshots with a
        # function of its own; hop.py defines no reduce-task class.
        task = make_task()
        assert type(task) is sortmerge.SortMergeReduceTask
        assert (task.namespace, task.combining) == ("hop-reduce", False)
        own = {
            name
            for name, obj in vars(hop).items()
            if isinstance(obj, type) and obj.__module__ == hop.__name__
        }
        assert own == {"HOPConfig", "Snapshot", "_ChunkBuffer", "HOPEngine"}

    def test_accepts_chunks_and_reduces(self):
        task = make_task()
        for pairs in ([("a", 1), ("b", 1)], [("a", 2)]):
            chunk, nbytes = self.chunk(pairs)
            task.accept_segment(chunk, nbytes)
        output, groups = task.run()
        assert sorted(output) == [("a", 3), ("b", 1)] and groups == 2

    def test_backlog_tracks_memory(self):
        task = make_task()
        chunk, nbytes = self.chunk([("a", 1)] * 10)
        task.accept_segment(chunk, nbytes)
        assert task.memory_bytes == nbytes

    def test_memory_pressure_spills_runs(self):
        task = make_task(reduce_buffer_bytes=256)
        for i in range(20):
            chunk, nbytes = self.chunk([(f"k{j}", 1) for j in range(10)])
            task.accept_segment(chunk, nbytes)
        assert task.counters[C.REDUCE_SPILL_BYTES] > 0
        output, _ = task.run()
        assert dict(output) == {f"k{j}": 20 for j in range(10)}
        assert task.counters[C.COMBINE_INPUT_RECORDS] == 0

    def test_snapshot_is_nondestructive(self):
        task = make_task(reduce_buffer_bytes=256)
        for i in range(10):
            chunk, nbytes = self.chunk([("a", 1), ("b", 1)])
            task.accept_segment(chunk, nbytes)
        snap1 = dict(take_snapshot(task, 0.5).records)
        snap2 = dict(take_snapshot(task, 0.75).records)
        assert snap1 == snap2 == {"a": 10, "b": 10}
        # Final run still sees everything.
        assert dict(task.run()[0]) == {"a": 10, "b": 10}

    def test_snapshot_reads_disk_runs(self):
        task = make_task(reduce_buffer_bytes=128)
        for i in range(30):
            chunk, nbytes = self.chunk([(f"k{i % 5}", 1)] * 4)
            task.accept_segment(chunk, nbytes)
        before = task.counters[C.MERGE_READ_BYTES]
        take_snapshot(task, 0.9)
        assert task.counters[C.MERGE_READ_BYTES] > before
        assert task.counters[C.SNAPSHOTS] == 1

    def test_snapshot_of_empty_task(self):
        task = make_task()
        snap = take_snapshot(task, 0.25)
        assert snap.records == ()
        assert snap.fraction == 0.25

    def test_run_counts_groups(self):
        task = make_task()
        chunk, nbytes = self.chunk([("a", 1), ("b", 2), ("c", 3)])
        task.accept_segment(chunk, nbytes)
        task.run()
        assert task.counters[C.REDUCE_INPUT_GROUPS] == 3
        assert task.counters[C.REDUCE_TASKS] == 1


class TestHeldPairs:
    """Until the last snapshot a HOP reducer holds each run's decoded pairs,
    so a snapshot re-reads its runs without decoding them."""

    @given(
        ops=st.lists(
            st.tuples(
                st.lists(st.tuples(st.text("ab", max_size=1), UNORDERABLE), max_size=8),
                st.booleans(),
            ),
            max_size=25,
        ),
        buffer_bytes=st.integers(1, 1500),
    )
    @settings(max_examples=80, deadline=None)
    def test_every_held_list_is_its_run(self, ops, buffer_bytes):
        # Equal keys across runs and values no sort may compare: a held list
        # must keep the on-disk order exactly, through spills and passes.
        task = make_task(reduce_buffer_bytes=buffer_bytes, merge_factor=2)
        for pairs, spill in ops:
            task.accept_segment(sorted(pairs, key=lambda p: p[0]), 48 * len(pairs) + 64)
            if spill:
                task._spill_memory()
            _, _, (runs, _) = task.export_ingested()
            assert sorted(task.run_pairs) == sorted(path for path, _ in runs)
            for path, _ in runs:
                assert task.run_pairs[path] == list(stream_run(task.disk, path))

    def test_a_snapshot_checks_what_it_re_reads(self):
        task = make_task(reduce_buffer_bytes=1)
        task.accept_segment([("a", 1), ("b", 2)], 160)
        [path] = task.run_pairs
        task.run_pairs[path].append(("c", 3))  # one pair more than the run holds
        with pytest.raises(ValueError, match="holds 2 frames for 3 records"):
            take_snapshot(task, 0.5)

    def test_held_lists_do_not_reach_the_reduce_spec(self):
        specs = []
        for hold in (True, False):
            task = make_task(reduce_buffer_bytes=256, merge_factor=2)
            task.hold_pairs(hold)
            for i in range(12):
                task.accept_segment([(f"k{i % 3}", i), (f"k{i % 5}", i)], 160)
            specs.append(reduce_spec(task))
        assert [f.name for f in fields(HadoopReduceSpec)] == [
            "partition", "node", "profile", "disk_name", "memory", "memory_bytes",
            "merger_runs", "merger_seq", "run_files", "run_keys", "namespace", "combine",
        ]  # fmt: skip
        assert specs[0] == specs[1] and specs[0].merger_runs

    @staticmethod
    def held_at_each_commit(monkeypatch, engine):
        """Run ``engine`` on a spilling job; per map commit, each reduce task's
        held runs (``None``: not holding) next to the runs it has."""
        seen = []
        after = type(engine)._after_map_commit

        def recording(self, run, completed):
            after(self, run, completed)
            for rtask in run.reduce_tasks.values():
                held = rtask.run_pairs
                runs = [path for path, _ in rtask.export_ingested()[2][0]]
                seen.append((run.next_snapshot, None if held is None else sorted(held), runs))

        monkeypatch.setattr(type(engine), "_after_map_commit", recording)
        result = engine.run(spilling_words(engine.cluster))
        assert result.counters[C.REDUCE_SPILLS] > 0
        return seen, result

    def test_the_lists_go_after_the_last_snapshot(self, monkeypatch):
        hop = HOPConfig(granularity_records=100, snapshot_fractions=(0.25, 0.5))
        engine = HOPEngine(LocalCluster(num_nodes=3, block_size=4096), hop_config=hop)
        seen, result = self.held_at_each_commit(monkeypatch, engine)
        assert result.counters[C.SNAPSHOTS] == 2 * 2
        assert any(runs for due, _, runs in seen if due < 2)
        for due, held, runs in seen:
            assert held == (sorted(runs) if due < 2 else None)

    def test_nothing_is_held_without_snapshots(self, monkeypatch):
        hop = HOPConfig(granularity_records=100, snapshot_fractions=())
        engine = HOPEngine(LocalCluster(num_nodes=3, block_size=4096), hop_config=hop)
        seen, result = self.held_at_each_commit(monkeypatch, engine)
        assert result.counters[C.SNAPSHOTS] == 0
        assert {held for _, held, _ in seen} == {None}

    def test_hadoop_never_holds(self, monkeypatch):
        holding = []
        add_run = MultiPassMerger.add_run

        def spy(self, *args):
            holding.append(self.run_pairs)
            add_run(self, *args)

        monkeypatch.setattr(MultiPassMerger, "add_run", spy)
        cluster = LocalCluster(num_nodes=3, block_size=4096)
        HadoopEngine(cluster).run(spilling_words(cluster))
        assert holding and set(holding) == {None}

    @pytest.mark.parametrize("fault", ["short_reads", "torn_writes"])
    def test_a_torn_or_short_run_still_fails_the_snapshot(self, fault):
        # The error the decoding re-read raised, word for word.
        cluster = LocalCluster(num_nodes=3, block_size=32 * 1024)
        cluster.hdfs.write_records("in", _click_records())
        job = _budget_job()
        job.input_path, job.output_path = "in", "out"
        engine = HOPEngine(cluster, fault_plan=FaultPlan(**{fault: {"hop-reduce/": 1}}))
        with pytest.raises(ValueError, match=r"^truncated trailing frame in hop-reduce/000/run-00000\.in$"):
            engine.run(job)


def spilling_words(cluster):
    """A word count whose reducers spill and merge, its input on ``cluster``."""
    cluster.hdfs.write_records("in", [f"w{i % 97} w{i % 13}" for i in range(3000)])
    config = JobConfig(num_reducers=2, reduce_buffer_bytes=4096, merge_factor=2)
    return MapReduceJob(
        "wc", word_pairs, sum_reduce, input_path="in", output_path="out", config=config
    )


def word_pairs(record):
    return [(w, 1) for w in record.split()]


class TestPipelinedMapTask:
    """Chunks are cut on input-record boundaries, whatever the slice size,
    and each is the stable ``(partition, key)`` sort of its pairs."""

    def emitted(
        self, batch, records, granularity, *, map_fn=word_pairs, combine_fn=None, num_reducers=2
    ):
        job = MapReduceJob(
            "wc",
            map_fn,
            sum_reduce,
            combine_fn=combine_fn,
            config=JobConfig(num_reducers=num_reducers, batch=batch),
        )
        chunks = []
        counters = Counters()
        buffer = _ChunkBuffer(
            job, 0, "n0", HOPConfig(granularity_records=granularity),
            lambda partition, pairs, nbytes: chunks.append((partition, pairs, nbytes)), counters,
        )  # fmt: skip
        sortmerge.run_map_task(job, 0, "n0", iter(records), buffer, counters)
        return chunks, counters

    def reference(self, records, granularity, map_fn=word_pairs):
        """Per-record chunking: emit once the pending pairs reach the granularity."""
        chunks, pending = [], []
        for record in records:
            pending += map_fn(record)
            if len(pending) >= granularity:
                chunks.append(pending)
                pending = []
        return chunks + ([pending] if pending else [])

    @pytest.mark.parametrize("batch", [False, True])
    @pytest.mark.parametrize("slice_records", [1, 3, 256])
    @pytest.mark.parametrize("granularity", [1, 5, 1000])
    def test_chunks_match_per_record_reference(
        self, monkeypatch, batch, slice_records, granularity
    ):
        monkeypatch.setattr(sortmerge, "MAP_SLICE_RECORDS", slice_records)
        records = ["a b c", "", "d", "e f g h i j k", "", "l m"] * 4
        chunks, counters = self.emitted(batch, records, granularity)
        # each chunk is emitted as its partitions' key-sorted pieces, in partition order
        expected = []
        for chunk in self.reference(records, granularity):
            for partition in (0, 1):
                piece = sorted(p for p in chunk if hash_partitioner(p[0], 2) == partition)
                if piece:
                    expected.append((partition, piece, 48 * len(piece) + 64))
        assert chunks == expected
        assert counters[C.SORT_RECORDS] == counters[C.MAP_OUTPUT_RECORDS] == 52
        assert counters[C.MAP_INPUT_RECORDS] == len(records)

    @given(
        outputs=st.lists(
            st.lists(st.tuples(st.text("abc", max_size=2), UNORDERABLE), max_size=6), max_size=30
        ),
        granularity=st.integers(1, 40),
        combine=st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_emissions_equal_the_stable_partition_key_sort(self, outputs, granularity, combine):
        # unorderable values: ties on the key must keep arrival order, never compare
        combine_fn = concat_combine if combine else None
        records = range(len(outputs))
        chunks, counters = self.emitted(
            False, records, granularity,
            map_fn=outputs.__getitem__, combine_fn=combine_fn, num_reducers=3,
        )  # fmt: skip
        expected = []
        for chunk in self.reference(records, granularity, outputs.__getitem__):
            pieces = reference_spill(chunk, 3, combine_fn)
            expected += [(p, pairs, 48 * len(pairs) + 64) for p, pairs in sorted(pieces.items())]
        assert chunks == expected
        n = sum(map(len, outputs))
        assert counters[C.SORT_RECORDS] == counters[C.MAP_OUTPUT_RECORDS] == n
        assert counters[C.COMBINE_INPUT_RECORDS] == (n if combine else 0)
        assert counters[C.COMBINE_OUTPUT_RECORDS] == (
            sum(len(pairs) for _, pairs, _ in expected) if combine else 0
        )

    @pytest.mark.parametrize("batch", [False, True])
    def test_keys_sharing_a_dict_slot_are_routed_per_record(self, monkeypatch, batch):
        # Only exact str/int keys go through the partition memo; 1.0 and True
        # equal 1 but must not be answered from its slot.  They hash alike, so
        # a spy routing by type tells the memo's answers from per-record ones.
        keys = [1, 1.0, True, 0, 0.0, -0.0, 2.5, 1, 1.0, True, 7, 7]
        job = MapReduceJob(
            "wc", lambda r: [(r, 1)], sum_reduce, config=JobConfig(num_reducers=3, batch=batch)
        )

        def by_type(key):
            return (int, float, bool).index(type(key))

        # The memo and the per-record ``hash_partitioner`` both hash here.
        monkeypatch.setattr(partition, "stable_hash", by_type)
        chunks = []
        counters = Counters()
        buffer = _ChunkBuffer(
            job, 0, "n0", HOPConfig(granularity_records=1000),
            lambda partition, pairs, nbytes: chunks.append((partition, [k for k, _ in pairs])),
            counters,
        )  # fmt: skip
        sortmerge.run_map_task(job, 0, "n0", iter(keys), buffer, counters)
        assert [(p, [type(k) for k in ks]) for p, ks in chunks] == [
            (0, [int] * 5), (1, [float] * 5), (2, [bool] * 2)
        ]  # fmt: skip
