"""Sort-merge map and reduce task behaviour."""

from itertools import accumulate, groupby
from operator import itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.io.disk import LocalDisk
from repro.io.serialization import encode_frames, estimate_size
from repro.io.runio import stream_run
from repro.mapreduce import sortmerge
from repro.mapreduce.api import JobConfig, MapReduceJob
from repro.mapreduce.counters import C, Counters
from repro.mapreduce.partition import hash_partitioner
from repro.mapreduce.sortmerge import SortMergeMapTask, SortMergeReduceTask


def word_map(record):
    for word in record.split():
        yield (word, 1)


def sum_reduce(key, values):
    yield (key, sum(values))


def sum_combine(key, values):
    yield (key, sum(values))


class _CountingCounters(Counters):
    """Counters that also count the ``inc`` calls per name."""

    def __init__(self):
        super().__init__()
        self.incs = {}

    def inc(self, name, amount=1):
        self.incs[name] = self.incs.get(name, 0) + 1
        super().inc(name, amount)


def make_job(**cfg):
    return MapReduceJob(
        "wordcount",
        word_map,
        sum_reduce,
        combine_fn=cfg.pop("combine", None),
        config=JobConfig(**cfg),
    )


class TestMapTask:
    def test_output_is_partitioned_and_sorted(self):
        job = make_job(num_reducers=3)
        disk = LocalDisk()
        task = SortMergeMapTask(job, 0, "n0", disk)
        out = task.run(["a b c d e f g h", "a b a b"])
        assert set(out.segments) <= {0, 1, 2}
        for seg in out.segments.values():
            pairs = list(stream_run(disk, seg.path))
            keys = [k for k, _ in pairs]
            assert keys == sorted(keys)
            assert seg.keys == keys  # the keys the shuffle hands on
        assert out.total_records == 12
        assert task.counters[C.MAP_INPUT_RECORDS] == 2
        assert task.counters[C.MAP_OUTPUT_RECORDS] == 12

    def test_sort_time_attributed(self):
        job = make_job()
        task = SortMergeMapTask(job, 0, "n0", LocalDisk())
        task.run(["x y z"] * 50)
        assert task.counters[C.T_SORT] > 0
        assert task.counters[C.T_MAP_FN] > 0
        assert task.counters[C.SORT_RECORDS] == 150

    def test_single_spill_has_no_merge_io(self):
        job = make_job(map_buffer_bytes=64 * 1024 * 1024)
        task = SortMergeMapTask(job, 0, "n0", LocalDisk())
        task.run(["a b c"] * 20)
        assert task.counters[C.MAP_SPILLS] == 1
        assert task.counters[C.MERGE_READ_BYTES] == 0

    def test_small_buffer_forces_spills_and_merge(self):
        job = make_job(map_buffer_bytes=2048)
        task = SortMergeMapTask(job, 0, "n0", LocalDisk())
        out = task.run([f"w{i} w{i + 1} w{i + 2}" for i in range(200)])
        assert task.counters[C.MAP_SPILLS] > 1
        assert task.counters[C.MERGE_READ_BYTES] > 0
        assert out.total_records == 600

    def test_combiner_shrinks_output(self):
        base = make_job(map_buffer_bytes=64 * 1024 * 1024)
        with_comb = make_job(combine=sum_combine, map_buffer_bytes=64 * 1024 * 1024)
        records = ["the quick the lazy the dog"] * 30
        out_plain = SortMergeMapTask(base, 0, "n0", LocalDisk()).run(list(records))
        out_comb = SortMergeMapTask(with_comb, 0, "n0", LocalDisk()).run(list(records))
        assert out_comb.total_records < out_plain.total_records
        assert out_comb.total_bytes < out_plain.total_bytes

    def test_combiner_partial_sums_are_correct(self):
        job = make_job(combine=sum_combine, num_reducers=1)
        disk = LocalDisk()
        out = SortMergeMapTask(job, 0, "n0", disk).run(["a a a b"] * 5)
        pairs = list(stream_run(disk, out.segments[0].path))
        assert dict(pairs) == {"a": 15, "b": 5}

    def test_combiner_applied_across_spills(self):
        job = make_job(combine=sum_combine, num_reducers=1, map_buffer_bytes=1500)
        disk = LocalDisk()
        out = SortMergeMapTask(job, 0, "n0", disk).run(["a b c d e"] * 100)
        pairs = list(stream_run(disk, out.segments[0].path))
        assert dict(pairs) == {w: 100 for w in "abcde"}

    def test_empty_input(self):
        job = make_job()
        out = SortMergeMapTask(job, 0, "n0", LocalDisk()).run([])
        assert out.segments == {}


def disk_files(disk):
    return {path: disk.peek(path) for path in disk.list_files()}


def concat_combine(key, values):
    yield (key, sum(values, ()))  # order-sensitive: a reordered tie changes the answer


#: Values no sort may compare: equal keys must keep their arrival order.
UNORDERABLE = st.sampled_from([(1j,), (None,), ("s",), (0,), (2j, None)])


def reference_spill(pairs, num_partitions, combine_fn=None):
    """The deleted tuple kernel, kept as the oracle: one stable sort on the
    compound (partition, key), cut by partition, the combiner over equal
    (partition, key) runs.  Returns ``{partition: sorted pairs}``."""
    rows = [(hash_partitioner(k, num_partitions), k, v) for k, v in pairs]
    rows.sort(key=itemgetter(0, 1))
    segments = {}
    for (partition, key), run in groupby(rows, key=itemgetter(0, 1)):
        values = [v for _, _, v in run]
        out = combine_fn(key, iter(values)) if combine_fn else [(key, v) for v in values]
        segments.setdefault(partition, []).extend(out)
    return segments


class TestCollect:
    """The bucket buffer against the stable ``(partition, key)`` sort it
    replaced; ``add_block`` against the one-pair ``add``; slices against
    whole blocks."""

    @given(
        blocks=st.lists(
            st.lists(st.tuples(st.text("abc", max_size=2), UNORDERABLE), min_size=1, max_size=40),
            max_size=4,
        ),
        combine=st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_spills_equal_the_stable_partition_key_sort(self, blocks, combine):
        combine_fn = concat_combine if combine else None
        disk, counters = LocalDisk(), Counters()
        buffer = sortmerge._SortSpillBuffer(
            make_job(num_reducers=3, combine=combine_fn), disk, 0, counters
        )
        expected_files, written = {}, 0
        for i, block in enumerate(blocks):
            buffer.add_block(block)
            buffer.spill()
            expected = reference_spill(block, 3, combine_fn)
            for partition, pairs in expected.items():
                expected_files[f"mapspill/00000/s{i:03d}-p{partition:03d}"] = encode_frames(pairs)
            records = {p: seg[2] for p, seg in buffer.spill_segments[i].items()}
            assert records == {p: len(pairs) for p, pairs in expected.items()}
            written += sum(records.values())
        assert disk_files(disk) == expected_files
        n = sum(map(len, blocks))
        assert counters[C.SORT_RECORDS] == n and counters[C.MAP_SPILLS] == len(blocks)
        assert counters[C.COMBINE_INPUT_RECORDS] == (n if combine else 0)
        assert counters[C.COMBINE_OUTPUT_RECORDS] == (written if combine else 0)

    @pytest.mark.parametrize("buffer_cls", [sortmerge._SortSpillBuffer])
    @given(
        pairs=st.lists(
            st.tuples(st.text("abcde", max_size=4), st.integers(0, 9)), max_size=150
        ),
        cuts=st.lists(st.integers(0, 150), max_size=6),
        budget=st.integers(1, 3000),
        combine=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_spill_files_identical_for_add_and_add_block(
        self, buffer_cls, pairs, cuts, budget, combine
    ):
        job = make_job(
            num_reducers=3, map_buffer_bytes=budget, combine=sum_combine if combine else None
        )
        outcomes = []
        for blocked in (False, True):
            disk, counters = LocalDisk(), Counters()
            buffer = buffer_cls(job, disk, 0, counters)
            if blocked:
                edges = [0, *sorted(min(c, len(pairs)) for c in cuts), len(pairs)]
                for a, b in zip(edges, edges[1:]):
                    buffer.add_block(pairs[a:b])
            else:
                for pair in pairs:
                    buffer.add_block([pair])
            segments = buffer.finish()
            counts = {
                k: v for k, v in counters.as_dict().items() if v and not k.startswith("time.")
            }
            outcomes.append((disk_files(disk), segments, counts, disk.stats.snapshot()))
        assert outcomes[0] == outcomes[1]

    @pytest.mark.parametrize("buffer_cls", [sortmerge._SortSpillBuffer])
    def test_every_record_is_routed_and_charged_as_without_the_memo(self, buffer_cls):
        # ``1 == 1.0 == True`` share a dict slot but not a size estimate; the
        # list key is unhashable (the sort-merge path accepts it).
        keys = [1, 1.0, True, "1", b"1", (1,), 0.0, -0.0, [1], 1, "1", True, 2**70, None]
        buffer = buffer_cls(make_job(num_reducers=5), LocalDisk(), 0, Counters())
        routed = []
        for key in keys * 2:
            before = buffer._bytes
            buffer.add_block([(key, ("v", 1))])
            assert buffer._bytes - before == estimate_size(key) + estimate_size(("v", 1)) + 32
            routed.append(hash_partitioner(key, 5))
        assert [len(b) for b in buffer._buckets] == [routed.count(p) for p in range(5)]

    @pytest.mark.parametrize("buffer_cls", [sortmerge._SortSpillBuffer])
    @pytest.mark.parametrize("make_key", [lambda i: f"w{i % 17}", lambda i: i % 11])
    def test_spill_points_do_not_depend_on_what_the_memo_holds(self, buffer_cls, make_key):
        pairs = [(make_key(i), i) for i in range(400)]
        outcomes = []
        for warm in (False, True):
            disk, counters = LocalDisk(), Counters()
            buffer = buffer_cls(
                make_job(num_reducers=3, map_buffer_bytes=1500), disk, 0, counters
            )
            if warm:
                for key, _ in pairs:
                    buffer._facts[key]
            buffer.add_block(pairs)
            segments = buffer.finish()
            outcomes.append((disk_files(disk), segments, counters[C.MAP_SPILLS]))
        assert outcomes[0] == outcomes[1] and outcomes[0][2] > 3

    @pytest.mark.parametrize("batch", [False, True])
    @pytest.mark.parametrize("slice_records", [1, 7, 10_000])
    def test_map_task_output_independent_of_slice_size(
        self, monkeypatch, batch, slice_records
    ):
        records = [f"w{i % 13} w{i % 5} w{i}" for i in range(300)]
        job = make_job(num_reducers=3, map_buffer_bytes=2048, combine=sum_combine, batch=batch)

        def run():
            disk = LocalDisk()
            task = SortMergeMapTask(job, 0, "n0", disk)
            out = task.run(iter(records))
            return disk_files(disk), out, task.counters[C.MAP_SPILLS]

        expected = run()
        monkeypatch.setattr(sortmerge, "MAP_SLICE_RECORDS", slice_records)
        assert run() == expected and expected[2] > 1

    def test_front_end_charges_parse_and_map_fn_per_slice(self, monkeypatch):
        monkeypatch.setattr(sortmerge, "MAP_SLICE_RECORDS", 4)
        calls = []

        def word_slice(records):
            calls.append(len(records))
            pairs = [(word, 1) for record in records for word in record.split()]
            return pairs, list(accumulate(len(record.split()) for record in records))

        # The per-record loop a job without a slice mapper gets, and a slice mapper.
        for map_slice in (sortmerge.per_record(word_map), word_slice):
            counters = _CountingCounters()
            slices = list(sortmerge.map_slices(iter(["a b", "", "c"] * 3), map_slice, counters))
            assert [len(ends) for _, ends in slices] == [4, 4, 1]
            assert slices[0] == ([("a", 1), ("b", 1), ("c", 1), ("a", 1), ("b", 1)], [2, 2, 3, 5])
            assert counters[C.MAP_INPUT_RECORDS] == 9
            assert counters[C.T_PARSE] > 0 and counters[C.T_MAP_FN] > 0
            # Three slices and the empty pull that ends the input: one charge each.
            assert counters.incs[C.T_PARSE] == counters.incs[C.T_MAP_FN] == 4
        assert calls == [4, 4, 1, 0]


class TestReduceTask:
    def feed(self, task, pairs_by_seg):
        for pairs in pairs_by_seg:
            pairs = sorted(pairs, key=lambda p: p[0])
            task.accept_segment(pairs, nbytes=64 * len(pairs))

    def test_in_memory_reduce(self):
        job = make_job(num_reducers=1)
        task = SortMergeReduceTask(job, 0, "n0", LocalDisk())
        self.feed(task, [[("a", 1), ("b", 2)], [("a", 3)]])
        output, groups = task.run()
        assert sorted(output) == [("a", 4), ("b", 2)]
        assert groups == 2
        assert task.counters[C.REDUCE_SPILL_BYTES] == 0

    def test_spill_path_produces_same_answer(self):
        job = make_job(num_reducers=1, reduce_buffer_bytes=512, merge_factor=2)
        task = SortMergeReduceTask(job, 0, "n0", LocalDisk())
        segments = [[(f"k{i % 7}", 1) for i in range(j, j + 20)] for j in range(0, 200, 20)]
        self.feed(task, segments)
        output, _ = task.run()
        total = sum(v for _, v in output)
        assert total == 200
        assert task.counters[C.REDUCE_SPILL_BYTES] > 0

    def test_reduce_counters(self):
        job = make_job(num_reducers=1)
        task = SortMergeReduceTask(job, 0, "n0", LocalDisk())
        self.feed(task, [[("a", 1), ("a", 2), ("b", 1)]])
        output, _ = task.run()
        assert task.counters[C.REDUCE_INPUT_RECORDS] == 3
        assert task.counters[C.REDUCE_INPUT_GROUPS] == 2
        assert task.counters[C.REDUCE_OUTPUT_RECORDS] == len(output)

    def test_combiner_on_reduce_spill(self):
        job = MapReduceJob(
            "wc",
            word_map,
            sum_reduce,
            combine_fn=sum_combine,
            config=JobConfig(num_reducers=1, reduce_buffer_bytes=512),
        )
        task = SortMergeReduceTask(job, 0, "n0", LocalDisk())
        self.feed(task, [[("a", 1)] * 30 for _ in range(10)])
        output, _ = task.run()
        assert output == [("a", 300)]
        assert task.counters[C.COMBINE_INPUT_RECORDS] > 0

    def test_empty_reduce(self):
        job = make_job(num_reducers=1)
        task = SortMergeReduceTask(job, 0, "n0", LocalDisk())
        output, groups = task.run()
        assert output == []
        assert groups == 0
