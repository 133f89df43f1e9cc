"""Sorted merging, grouping and the multi-pass merger."""

import heapq
import math
from itertools import chain
from operator import itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.io.disk import LocalDisk
from repro.mapreduce.counters import C, Counters
from repro.mapreduce import merge
from repro.mapreduce.merge import (
    STEP_RECORDS,
    MultiPassMerger,
    group_sorted,
    merge_sorted,
    pair_pieces,
)

sorted_runs = st.lists(
    st.lists(st.tuples(st.integers(0, 50), st.integers()), max_size=30).map(
        lambda run: sorted(run, key=lambda p: p[0])
    ),
    max_size=6,
)


def _pieces(*pieces):
    """A stream of pieces of pairs, keyed by pair key."""
    return list(pair_pieces(pieces))


class TestMergeSorted:
    """A stream is an iterable of ``(keys, items)`` pieces."""

    def test_empty(self):
        assert list(merge_sorted([])) == []
        assert list(merge_sorted([iter([]), _pieces([], [])])) == []

    def test_two_streams(self):
        a = [(1, "a"), (3, "a")]
        b = [(2, "b"), (3, "b")]
        merged = list(merge_sorted([_pieces(a), _pieces(b[:1], b[1:])]))
        assert [k for k, _ in merged] == [1, 2, 3, 3]

    def test_stability_by_stream_index(self):
        a = [(1, "first")]
        b = [(1, "second")]
        assert list(merge_sorted([_pieces(a), _pieces(b)])) == [(1, "first"), (1, "second")]

    def test_items_follow_their_keys_and_the_merged_keys_are_noted(self):
        keys = []
        streams = [[([1, 4], ["x1", "x4"])], [([2], ["y2"]), ([4, 5], ["y4", "y5"])]]
        assert list(merge_sorted(streams, keys)) == ["x1", "y2", "x4", "y4", "y5"]
        assert keys == [1, 2, 4, 4, 5]

    @given(sorted_runs)
    @settings(max_examples=60)
    def test_property_globally_sorted_and_complete(self, runs):
        merged = list(merge_sorted([_pieces(r) for r in runs]))
        keys = [k for k, _ in merged]
        assert keys == sorted(keys)
        assert sorted(merged) == sorted(p for run in runs for p in run)


#: One key domain per example, small enough that keys repeat across streams.
_KEY_DOMAINS = [
    st.integers(0, 5),
    st.text(alphabet="ab", max_size=2),
    st.binary(max_size=2),
    st.tuples(st.integers(0, 2), st.text(alphabet="ab", max_size=1)),
    st.sampled_from([-1.5, -0.0, 0.0, 1.0, 2.5, math.inf]),
    st.one_of(st.integers(0, 3), st.sampled_from([0.5, 1.0, 2.0])),  # 1 == 1.0
]


@st.composite
def _pieced_streams(draw):
    """0-6 key-sorted streams, each cut into pieces, empty pieces included."""
    keys = draw(st.sampled_from(_KEY_DOMAINS))
    streams = []
    for i in range(draw(st.integers(0, 6))):
        records = [(k, (i, j)) for j, k in enumerate(sorted(draw(st.lists(keys, max_size=12))))]
        pieces = []
        for size in draw(st.lists(st.integers(0, 4), max_size=6)):
            pieces.append(records[:size])
            records = records[size:]
        if records:
            pieces.append(records)
        streams.append(pieces)
    return streams


def _logged_run(merge, streams):
    """Merge ``streams`` with ``merge``; the output and one log holding each
    piece read and, after every record the consumer takes, its position."""
    log = []

    def reader(i, pieces):
        for j, piece in enumerate(pieces):
            log.append(("read", i, j))
            yield piece

    out = []
    for record in merge([reader(i, pieces) for i, pieces in enumerate(streams)]):
        out.append(record)
        log.append(("took", len(out)))
    return out, log


def _merge_sorted(readers):
    return merge_sorted(list(map(pair_pieces, readers)))


def _heapq_merge(readers):
    """The reference: heapq.merge over record streams that read a piece when
    they run out of records, as a run streamed off disk does."""
    return heapq.merge(*map(chain.from_iterable, readers), key=itemgetter(0))


class TestMergeMatchesHeapq:
    @pytest.mark.parametrize("step", [1, 3, STEP_RECORDS])
    @given(streams=_pieced_streams())
    @settings(max_examples=200, deadline=None)
    def test_same_records_and_same_reads_between_the_same_records(self, step, streams):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(merge, "STEP_RECORDS", step)  # steps end inside pieces too
            assert _logged_run(_merge_sorted, streams) == _logged_run(_heapq_merge, streams)

    def test_nan_keys_are_the_documented_difference(self):
        # heapq tests == before <, a stable sort only <: with NaN keys the two
        # may disagree on order, never on which records come out.
        nan = math.nan
        streams = [[[(1.0, "a"), (nan, "a")]], [[(nan, "b"), (0.5, "b")]]]
        ours, ref = _logged_run(_merge_sorted, streams)[0], _logged_run(_heapq_merge, streams)[0]
        assert sorted(map(repr, ours)) == sorted(map(repr, ref))


class TestGroupSorted:
    def test_empty(self):
        assert list(group_sorted([])) == []

    def test_groups_consecutive_keys(self):
        pairs = [(1, "a"), (1, "b"), (2, "c")]
        groups = [(k, list(v)) for k, v in group_sorted(pairs)]
        assert groups == [(1, ["a", "b"]), (2, ["c"])]

    def test_single_group(self):
        groups = [(k, list(v)) for k, v in group_sorted([(5, i) for i in range(4)])]
        assert groups == [(5, [0, 1, 2, 3])]

    def test_unconsumed_values_are_drained(self):
        pairs = [(1, "a"), (1, "b"), (2, "c"), (3, "d")]
        keys = [k for k, _values in group_sorted(pairs)]
        assert keys == [1, 2, 3]

    def test_unconsumed_groups_are_drained_from_the_source(self):
        source = iter([(1, "a"), (1, "b"), (2, "c"), (2, "d"), (3, "e")])
        groups = group_sorted(source)
        key, values = next(groups)
        assert (key, next(values)) == (1, "a")  # "b" is left behind
        key, values = next(groups)
        assert (key, list(values)) == (2, ["c", "d"])
        assert [k for k, _ in groups] == [3]
        assert next(source, None) is None

    def test_partially_consumed_group(self):
        pairs = [(1, x) for x in "abcde"] + [(2, "z")]
        out = []
        for key, values in group_sorted(pairs):
            out.append((key, next(values, None)))
        assert out == [(1, "a"), (2, "z")]

    @given(st.lists(st.tuples(st.integers(0, 10), st.integers()), max_size=60))
    @settings(max_examples=60)
    def test_property_groups_partition_the_stream(self, pairs):
        pairs = sorted(pairs, key=lambda p: p[0])
        reassembled = []
        for key, values in group_sorted(pairs):
            for v in values:
                reassembled.append((key, v))
        assert reassembled == pairs


class TestMultiPassMerger:
    def make(self, factor=3):
        disk = LocalDisk()
        counters = Counters()
        return MultiPassMerger(disk, "red", factor=factor, counters=counters), disk, counters

    @staticmethod
    def run_of(lo, n):
        return [(k, k) for k in range(lo, lo + n)]

    def test_single_run_passthrough(self):
        merger, _, counters = self.make()
        merger.add_run(self.run_of(0, 5))
        assert list(merger.final_merge()) == self.run_of(0, 5)
        assert counters[C.MERGE_PASSES] == 0

    def test_final_is_globally_sorted(self):
        merger, _, _ = self.make(factor=3)
        for i in range(7):
            merger.add_run(sorted((k * 7 + i, i) for k in range(10)))
        merged = list(merger.final_merge())
        keys = [k for k, _ in merged]
        assert keys == sorted(keys)
        assert len(merged) == 70

    def test_background_merge_triggers_at_2f_minus_1(self):
        merger, _, counters = self.make(factor=3)
        for i in range(4):
            merger.add_run(self.run_of(i, 2))
        assert counters[C.MERGE_PASSES] == 0  # below 2F-1 = 5
        merger.add_run(self.run_of(9, 2))
        assert counters[C.MERGE_PASSES] == 1
        assert merger.run_count == 3  # F-1 small + 1 merged

    def test_merge_io_counted(self):
        merger, _, counters = self.make(factor=2)
        for i in range(6):
            merger.add_run(self.run_of(i * 10, 4))
        list(merger.final_merge())
        assert counters[C.MERGE_READ_BYTES] > 0
        assert counters[C.MERGE_WRITE_BYTES] > 0
        assert counters[C.REDUCE_SPILL_BYTES] > 0
        assert counters[C.REDUCE_SPILLS] == 6

    def test_rewrite_volume_is_logarithmic_not_quadratic(self):
        # The 2F-1 policy must not re-merge large runs on every trigger:
        # total rewrite stays within ~log_F(runs) passes over the data.
        # (The naive merge-at-F policy rewrites ~runs/F times the data.)
        import math

        merger, _, counters = self.make(factor=4)
        n_runs = 40
        for i in range(n_runs):
            merger.add_run(self.run_of(i * 5, 5))
        total_spill = counters[C.REDUCE_SPILL_BYTES]
        list(merger.final_merge())
        bound = math.ceil(math.log(n_runs, 4)) * total_spill
        assert counters[C.MERGE_WRITE_BYTES] <= bound

    def test_add_after_final_raises(self):
        merger, _, _ = self.make()
        merger.add_run(self.run_of(0, 2))
        merger.final_merge()
        with pytest.raises(RuntimeError):
            merger.add_run(self.run_of(0, 2))
        with pytest.raises(RuntimeError):
            merger.final_merge()

    def test_cleanup_removes_files(self):
        merger, disk, _ = self.make()
        for i in range(4):
            merger.add_run(self.run_of(i, 3))
        merger.cleanup()
        assert disk.list_files("red/") == []

    def test_factor_validation(self):
        with pytest.raises(ValueError):
            MultiPassMerger(LocalDisk(), "x", factor=1)
