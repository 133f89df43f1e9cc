"""Hybrid hash grouping: correctness under every memory regime."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregates import COLLECT, COUNT, SUM
from repro.core.hash_tables import AccountedStateTable
from repro.core.hybrid_hash import HybridHashGrouper, SpilledState
from repro.io.disk import LocalDisk
from repro.mapreduce.counters import C, Counters
from tests.core.per_pair import KeepingDisk, cut, hybrid_add

pair_streams = st.lists(
    st.tuples(st.integers(0, 40), st.integers(-5, 5)), max_size=300
)


def group_all(pairs, memory_bytes, aggregator=COUNT, **kwargs):
    disk = LocalDisk()
    counters = Counters()
    g = HybridHashGrouper(
        disk, "hh", memory_bytes, aggregator=aggregator, counters=counters, **kwargs
    )
    for k, v in pairs:
        g.add(k, v)
    return dict(g.finish()), disk, counters, g


class TestInMemory:
    def test_counts(self):
        pairs = [("a", 1)] * 5 + [("b", 1)] * 3
        results, disk, counters, g = group_all(pairs, 1 << 20)
        assert results == {"a": 5, "b": 3}
        assert not g.frozen
        assert counters[C.REDUCE_SPILL_BYTES] == 0
        assert disk.list_files() == []

    def test_collect_grouping(self):
        pairs = [("a", 1), ("b", 2), ("a", 3)]
        results, *_ = group_all(pairs, 1 << 20, aggregator=COLLECT)
        assert results == {"a": [1, 3], "b": [2]}

    def test_empty(self):
        results, *_ = group_all([], 1 << 20)
        assert results == {}

    def test_finish_twice_raises(self):
        _, _, _, g = group_all([("a", 1)], 1 << 20)
        with pytest.raises(RuntimeError):
            list(g.finish())

    def test_add_after_finish_raises(self):
        _, _, _, g = group_all([("a", 1)], 1 << 20)
        with pytest.raises(RuntimeError):
            g.add("x", 1)


class TestOverflow:
    def test_tiny_memory_still_correct(self):
        pairs = [(f"k{i % 37}", 1) for i in range(2000)]
        results, _, counters, g = group_all(pairs, 2048)
        assert results == dict(Counter(k for k, _ in pairs))
        assert g.frozen
        assert counters[C.REDUCE_SPILL_BYTES] > 0

    def test_resident_keys_keep_aggregating_in_memory(self):
        # The first key to arrive stays resident; later duplicates of it
        # must not be spilled.
        pairs = [("hot", 1)] + [(f"cold{i}", 1) for i in range(500)]
        pairs += [("hot", 1)] * 100
        results, _, _, g = group_all(pairs, 1024)
        assert results["hot"] == 101

    def test_spill_partition_count_respected(self):
        pairs = [(f"k{i}", 1) for i in range(400)]
        disk = LocalDisk()
        g = HybridHashGrouper(disk, "hh", 512, aggregator=COUNT, spill_partitions=4)
        for k, v in pairs:
            g.add(k, v)
        live = [p for p in disk.list_files("hh/") if "l0" in p]
        assert 1 <= len(live) <= 4
        dict(g.finish())

    def test_spill_files_cleaned_after_finish(self):
        pairs = [(f"k{i % 60}", 1) for i in range(600)]
        results, disk, _, _ = group_all(pairs, 1024)
        assert disk.list_files("hh/") == []
        assert len(results) == 60

    def test_eviction_of_linear_states(self):
        # Collect states on a frozen table must eventually be shed to disk.
        pairs = [("big", "x" * 100) for _ in range(200)]
        pairs += [(f"other{i}", "y") for i in range(50)]
        pairs += [("big", "x" * 100) for _ in range(200)]
        results, _, _, _ = group_all(pairs, 4096, aggregator=COLLECT)
        assert len(results["big"]) == 400

    def test_spilled_state_roundtrip(self):
        inner = COUNT.initial()
        inner.update(None)
        wrapper = SpilledState(inner)
        assert wrapper.state.result() == 1

    @given(pair_streams, st.sampled_from([256, 1024, 16384, 1 << 20]))
    @settings(max_examples=40, deadline=None)
    def test_property_counts_match_reference(self, pairs, memory):
        results, *_ = group_all(pairs, memory)
        assert results == dict(Counter(k for k, _ in pairs))

    @given(pair_streams, st.sampled_from([512, 8192]))
    @settings(max_examples=25, deadline=None)
    def test_property_sums_match_reference(self, pairs, memory):
        results, *_ = group_all(pairs, memory, aggregator=SUM)
        expected: dict[int, int] = {}
        for k, v in pairs:
            expected[k] = expected.get(k, 0) + v
        assert results == expected


class RecordingTable(AccountedStateTable):
    """Remembers which keys every shed evicted, in order."""

    __slots__ = ("sheds",)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.sheds = []

    def _shed(self, misses):
        start = len(misses)
        popped = super()._shed(misses)
        self.sheds.append([key for key, _ in misses[start:]])
        return popped


def make_recording(disk, counters, memory, aggregator):
    g = HybridHashGrouper(disk, "hh", memory, aggregator=aggregator, counters=counters)
    g._table = RecordingTable(aggregator, budget=memory, shed=True)
    return g


def observe(grouper, disk, counters):
    """Everything a caller could tell two groupers apart by, then the output
    and the bytes of every spill file."""
    table = grouper._table
    state = (
        grouper.frozen,
        table.frozen_bytes,
        [k for k, _ in table.items()],
        table.used_bytes,
        table.probes,
        [w.records_written if w is not None else 0 for w in grouper._spills.writers],
        table.sheds,
    )
    output = list(grouper.finish())
    counts = [(k, v) for k, v in counters.as_dict().items() if not k.startswith("time.")]
    return state, output, counts, disk.stats.snapshot(), disk.deleted


def run_grouper(pairs, cuts, memory, aggregator):
    """The per-pair reference (``cuts is None``) or ``add_batch`` of the cut stream."""
    disk, counters = KeepingDisk(), Counters()
    g = make_recording(disk, counters, memory, aggregator)
    if cuts is None:
        for key, value in pairs:
            victims = hybrid_add(g, key, value)
            if victims is not None:
                g._table.sheds.append(victims)
    else:
        for chunk in cut(pairs, cuts):
            g.add_batch(chunk)
    return g, observe(g, disk, counters)


def spilled(aggregator, values):
    state = aggregator.initial()
    for value in values:
        state.update(value)
    return SpilledState(state)


#: Keys that share dict slots but not size estimates or pickles.
mixed_keys = st.one_of(st.integers(0, 25), st.sampled_from([1, 1.0, "1", True, 2.0, "k"]))


def stream(draw_items, aggregator):
    """Build pairs afresh per run: a SpilledState's inner state is mutable."""
    return [
        (key, spilled(aggregator, value) if as_state else value[0] if value else None)
        for key, value, as_state in draw_items
    ]


class TestBatchEquivalence:
    """``add_batch`` is the parent's per-pair ``add`` (``per_pair.hybrid_add``)."""

    @given(
        st.lists(st.tuples(st.integers(0, 25), st.text("xyz", max_size=80)), max_size=200),
        st.lists(st.integers(0, 200), max_size=5),
        st.sampled_from([300, 1500, 6000, 1 << 20]),
        st.sampled_from([COLLECT, COUNT]),
    )
    @settings(max_examples=80, deadline=None)
    def test_same_spills_sheds_and_output_however_the_stream_is_cut(
        self, pairs, cuts, memory, aggregator
    ):
        _, per_pair = run_grouper(pairs, None, memory, aggregator)
        _, batched = run_grouper(pairs, cuts, memory, aggregator)
        assert per_pair == batched

    @given(
        st.lists(
            st.tuples(mixed_keys, st.lists(st.text("xy", max_size=40), max_size=3), st.booleans()),
            max_size=150,
        ),
        st.lists(st.integers(0, 150), max_size=5),
        st.sampled_from([1, 200, 900, 4000]),
        st.sampled_from([COLLECT, COUNT]),
    )
    @settings(max_examples=80, deadline=None)
    def test_spilled_states_mixed_keys_and_tiny_budgets(self, items, cuts, memory, aggregator):
        _, per_pair = run_grouper(stream(items, aggregator), None, memory, aggregator)
        _, batched = run_grouper(stream(items, aggregator), cuts, memory, aggregator)
        assert per_pair == batched

    def test_freeze_and_shed_in_the_middle_of_one_batch(self):
        # 30 keys freeze a 2 KiB table; the resident "k0" then outgrows
        # 2 x budget twice while cold keys spill around it.
        pairs = [(f"k{i}", "v" * 20) for i in range(30)]
        pairs += [("k0" if i % 3 else f"cold{i}", "w" * 90) for i in range(120)]
        per_pair_g, per_pair = run_grouper(pairs, None, 2048, COLLECT)
        batched_g, batched = run_grouper(pairs, [], 2048, COLLECT)
        assert per_pair == batched
        assert batched_g._table.sheds and any("k0" in victims for victims in batched_g._table.sheds)
        assert batched_g.spilled_records > 40
        assert batched[4]  # spill files were compared byte for byte

    def test_spilled_states_merge_in_a_batch(self):
        inner = COUNT.initial()
        for _ in range(5):
            inner.update(None)
        g = HybridHashGrouper(LocalDisk(), "hh", 1 << 20, aggregator=COUNT)
        g.add_batch([("a", None), ("a", SpilledState(inner)), ("b", SpilledState(inner))])
        assert dict(g.finish()) == {"a": 6, "b": 5}

    def test_spilled_records_sum_the_writers(self):
        g = HybridHashGrouper(LocalDisk(), "hh", 256, aggregator=COUNT, spill_partitions=4)
        g.add_batch([(f"k{i}", 1) for i in range(100)])
        written = [w.records_written for w in g._spills.writers if w is not None]
        assert g.spilled_records == sum(written) == 100 - len(g._table)


class TestValidation:
    def test_bad_memory(self):
        with pytest.raises(ValueError):
            HybridHashGrouper(LocalDisk(), "x", 0)

    def test_bad_partitions(self):
        with pytest.raises(ValueError):
            HybridHashGrouper(LocalDisk(), "x", 100, spill_partitions=1)

    def test_max_levels_fallback(self):
        # With max_levels=1 the overflow path must finish without recursion.
        disk = LocalDisk()
        g = HybridHashGrouper(disk, "hh", 512, aggregator=COUNT, max_levels=1)
        for i in range(300):
            g.add(f"k{i % 23}", 1)
        results = dict(g.finish())
        assert results == {f"k{i}": 300 // 23 + (1 if i < 300 % 23 else 0) for i in range(23)}
