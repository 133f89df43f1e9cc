"""Hybrid hash grouping: correctness under every memory regime."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregates import COLLECT, COUNT, SUM
from repro.core.hybrid_hash import HybridHashGrouper, SpilledState
from repro.io.disk import LocalDisk
from repro.mapreduce.counters import C, Counters

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


class RecordingGrouper(HybridHashGrouper):
    """Remembers which states every shed evicted, in order."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.sheds = []

    def _evict_largest(self):
        before = [k for k, _ in self._table.items()]
        super()._evict_largest()
        after = {k for k, _ in self._table.items()}
        self.sheds.append([k for k in before if k not in after])


def observe(grouper, disk, counters):
    """Everything a caller could tell two groupers apart by, then the output."""
    state = (
        grouper.frozen,
        [k for k, _ in grouper._table.items()],
        grouper._table.used_bytes,
        grouper._table.probes,
        list(grouper._spilled_pairs),
        grouper.sheds,
    )
    output = list(grouper.finish())
    counts = {k: v for k, v in counters.as_dict().items() if not k.startswith("time.")}
    return state, output, counts, disk.stats.snapshot()


def run_grouper(pairs, cuts, memory, aggregator):
    disk, counters = LocalDisk(), Counters()
    g = RecordingGrouper(disk, "hh", memory, aggregator=aggregator, counters=counters)
    if cuts is None:
        for key, value in pairs:
            g.add(key, value)
    else:
        edges = [0, *sorted(min(c, len(pairs)) for c in cuts), len(pairs)]
        for a, b in zip(edges, edges[1:]):
            g.add_batch(pairs[a:b])
    return g, observe(g, disk, counters)


class TestBatchEquivalence:
    """``add_batch`` is per-pair ``add`` with the lookups hoisted."""

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

    def test_freeze_and_shed_in_the_middle_of_one_batch(self):
        # 30 keys freeze a 2 KiB table; the resident "k0" then outgrows
        # 2 x budget twice while cold keys spill around it.
        pairs = [(f"k{i}", "v" * 20) for i in range(30)]
        pairs += [("k0" if i % 3 else f"cold{i}", "w" * 90) for i in range(120)]
        per_pair_g, per_pair = run_grouper(pairs, None, 2048, COLLECT)
        batched_g, batched = run_grouper(pairs, [], 2048, COLLECT)
        assert per_pair == batched
        assert batched_g.sheds and any("k0" in victims for victims in batched_g.sheds)
        assert sum(batched_g._spilled_pairs) > 40

    def test_spilled_states_merge_in_a_batch(self):
        inner = COUNT.initial()
        for _ in range(5):
            inner.update(None)
        g = HybridHashGrouper(LocalDisk(), "hh", 1 << 20, aggregator=COUNT)
        g.add_batch([("a", None), ("a", SpilledState(inner)), ("b", SpilledState(inner))])
        assert dict(g.finish()) == {"a": 6, "b": 5}


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
