"""MapReduce Online internals: the pipelined map and reduce tasks in isolation."""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mapreduce import hop, sortmerge
from repro.mapreduce.api import JobConfig, MapReduceJob
from repro.mapreduce.counters import C
from repro.mapreduce.hop import HOPConfig, HOPEngine, _PipelinedMapTask, take_snapshot
from repro.mapreduce.partition import hash_partitioner
from repro.mapreduce.runtime import LocalCluster

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
        assert own == {"HOPConfig", "Snapshot", "_PipelinedMapTask", "HOPEngine"}

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
        task = _PipelinedMapTask(
            job, 0, "n0", HOPConfig(granularity_records=granularity),
            lambda partition, pairs, nbytes: chunks.append((partition, pairs, nbytes)),
        )
        task.run(iter(records))
        return chunks, task.counters

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
    def test_keys_sharing_a_dict_slot_are_routed_per_record(self, batch):
        # Only exact str/int keys go through the partition memo; 1.0 and True
        # equal 1 but must not be answered from its slot by a custom partitioner.
        keys = [1, 1.0, True, 0, 0.0, -0.0, 2.5, 1, 1.0, True, 7, 7]
        job = MapReduceJob(
            "wc", lambda r: [(r, 1)], sum_reduce, config=JobConfig(num_reducers=3, batch=batch)
        )

        def by_type(key, n):
            return (int, float, bool).index(type(key))

        chunks = []
        task = _PipelinedMapTask(
            job, 0, "n0", HOPConfig(granularity_records=1000),
            lambda partition, pairs, nbytes: chunks.append((partition, [k for k, _ in pairs])),
            partitioner=by_type,
        )  # fmt: skip
        task.run(iter(keys))
        assert [(p, [type(k) for k in ks]) for p, ks in chunks] == [
            (0, [int] * 5), (1, [float] * 5), (2, [bool] * 2)
        ]  # fmt: skip
