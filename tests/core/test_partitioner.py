"""Map-side scan partitioning and hash combining."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregates import COLLECT, COUNT, SUM
from repro.core.hash_tables import AccountedStateTable, SpilledState
from repro.core.partitioner import MapSideHashCombiner, ScanPartitionBuffer
from repro.io.serialization import estimate_size
from repro.mapreduce.counters import C, Counters
from repro.mapreduce.partition import hash_partitioner
from tests.core.per_pair import fold_one, remeasured


class Sink:
    def __init__(self):
        self.chunks: list[tuple[int, list, int]] = []

    def __call__(self, partition, pairs, nbytes):
        self.chunks.append((partition, list(pairs), nbytes))

    def pairs_for(self, partition):
        return [p for part, pairs, _ in self.chunks if part == partition for p in pairs]

    def all_pairs(self):
        return [p for _, pairs, _ in self.chunks for p in pairs]


class TestScanPartitionBuffer:
    def test_all_pairs_delivered_once(self):
        sink = Sink()
        buf = ScanPartitionBuffer(3, sink, buffer_bytes=256)
        pairs = [(f"k{i}", i) for i in range(100)]
        for k, v in pairs:
            buf.add(k, v)
        buf.finish()
        assert sorted(sink.all_pairs()) == sorted(pairs)

    def test_partitioning_consistent_per_key(self):
        sink = Sink()
        buf = ScanPartitionBuffer(4, sink, buffer_bytes=128)
        for i in range(200):
            buf.add(f"k{i % 10}", i)
        buf.finish()
        seen: dict[str, int] = {}
        for partition, pairs, _ in sink.chunks:
            for k, _v in pairs:
                assert seen.setdefault(k, partition) == partition

    def test_no_grouping_no_ordering(self):
        # Scan-only: pairs arrive downstream in arrival order per partition.
        sink = Sink()
        buf = ScanPartitionBuffer(1, sink, buffer_bytes=1 << 20)
        buf.add("b", 1)
        buf.add("a", 2)
        buf.add("b", 3)
        buf.finish()
        assert sink.pairs_for(0) == [("b", 1), ("a", 2), ("b", 3)]

    def test_flush_at_buffer_boundary(self):
        sink = Sink()
        buf = ScanPartitionBuffer(1, sink, buffer_bytes=200)
        for i in range(50):
            buf.add("k", "x" * 20)
        assert len(sink.chunks) > 1  # flushed before finish

    def test_counters(self):
        counters = Counters()
        buf = ScanPartitionBuffer(2, Sink(), counters=counters)
        for i in range(10):
            buf.add(i, i)
        assert counters[C.MAP_OUTPUT_RECORDS] == 10

    def test_validation(self):
        with pytest.raises(ValueError):
            ScanPartitionBuffer(0, Sink())


class TestMapSideHashCombiner:
    def unwrap(self, pairs):
        return {k: v.state.result() for k, v in pairs}

    def test_emits_partial_states(self):
        sink = Sink()
        comb = MapSideHashCombiner(2, COUNT, sink, memory_bytes=1 << 20)
        for key in "aabbbc":
            comb.add_block([(key, 1)])
        comb.finish()
        merged: Counter = Counter()
        for _, pairs, _ in sink.chunks:
            for k, v in pairs:
                assert isinstance(v, SpilledState)
                merged[k] += v.state.result()
        assert merged == Counter("aabbbc")

    def test_combining_shrinks_records(self):
        sink = Sink()
        comb = MapSideHashCombiner(1, COUNT, sink, memory_bytes=1 << 20)
        for _ in range(1000):
            comb.add_block([("same", 1)])
        comb.finish()
        assert len(sink.all_pairs()) == 1

    def test_memory_pressure_flushes(self):
        sink = Sink()
        comb = MapSideHashCombiner(1, SUM, sink, memory_bytes=4096)
        for i in range(2000):
            comb.add_block([(f"key-{i}", 1)])
        assert sink.chunks  # flushed before finish
        comb.finish()
        total = sum(v.state.result() for _, pairs, _ in sink.chunks for _k, v in pairs)
        assert total == 2000

    def test_partial_sums_recombine_exactly(self):
        sink = Sink()
        comb = MapSideHashCombiner(3, SUM, sink, memory_bytes=2048)
        expected: dict[str, int] = {}
        for i in range(3000):
            key, value = f"k{i % 40}", i % 5
            comb.add_block([(key, value)])
            expected[key] = expected.get(key, 0) + value
        comb.finish()
        merged: dict[str, int] = {}
        for _, pairs, _ in sink.chunks:
            for k, v in pairs:
                merged[k] = merged.get(k, 0) + v.state.result()
        assert merged == expected

    def test_validation(self):
        with pytest.raises(ValueError):
            MapSideHashCombiner(0, COUNT, Sink())
        with pytest.raises(ValueError):
            MapSideHashCombiner(1, COUNT, Sink(), memory_bytes=0)


# -- collect equivalence: add_block against a per-pair reference ---------------

#: Keys that share a dict slot but not a size estimate or (for the tuples) a
#: partition: only exact ``str``/``int`` keys may go through the key-facts memo.
tricky_keys = st.sampled_from(
    [1, 1.0, True, 0, 0.0, -0.0, False, "1", b"1", (1,), (1.0,), (1, "a"), (1.0, "a"), None,
     2.5, 2**70]
)  # fmt: skip

pair_streams = st.lists(
    st.tuples(
        st.one_of(st.integers(0, 40), st.text("abcdef", max_size=6), tricky_keys),
        st.one_of(st.integers(-5, 5), st.text("xyz", max_size=12)),
    ),
    max_size=120,
)
block_cuts = st.lists(st.integers(0, 120), max_size=8)


def blocks(pairs, cuts):
    """``pairs`` cut into consecutive blocks at the (sorted, clamped) ``cuts``."""
    edges = [0, *sorted(min(c, len(pairs)) for c in cuts), len(pairs)]
    return [pairs[a:b] for a, b in zip(edges, edges[1:])]


def reference_scan(pairs, num_partitions, budget):
    """The per-pair scan collect, kept here as the reference."""
    buffers = [[] for _ in range(num_partitions)]
    sizes = [0] * num_partitions
    chunks = []
    for key, value in pairs:
        p = hash_partitioner(key, num_partitions)
        buffers[p].append((key, value))
        sizes[p] += estimate_size(key) + estimate_size(value) + 32
        if sizes[p] >= budget:
            chunks.append((p, buffers[p], sizes[p]))
            buffers[p], sizes[p] = [], 0
    chunks += [(p, buffers[p], sizes[p]) for p in range(num_partitions) if buffers[p]]
    return chunks


def reference_combine(pairs, num_partitions, aggregator, budget):
    """The per-pair combine collect into one table per partition (budget =
    sum over all tables, each pair folded by ``per_pair.fold_one``), the
    reference."""
    tables = [AccountedStateTable(aggregator) for _ in range(num_partitions)]
    chunks = []

    def flush():
        for p, table in enumerate(tables):
            if len(table):
                chunks.append((p, list(table.results()), table.used_bytes))
                table.clear()

    for key, value in pairs:
        fold_one(tables[hash_partitioner(key, num_partitions)], key, value)
        if sum(t.used_bytes for t in tables) >= budget:
            flush()
    flush()
    return chunks


def results(sink):
    """A combiner sink's chunks with the pushed states unwrapped."""
    return [
        (p, [(k, v.state.result()) for k, v in chunk], nbytes)
        for p, chunk, nbytes in sink.chunks
    ]


class CheckedCombiner(MapSideHashCombiner):
    """Asserts the table's running total against a full re-measure of its
    states at every flush."""

    def flush(self):
        assert self._table.used_bytes == remeasured(self._table)
        super().flush()
        assert self._table.used_bytes == 0 == len(self._table)


class TestCollectEquivalence:
    @given(pair_streams, block_cuts, st.integers(1, 16), st.integers(1, 2000))
    @settings(max_examples=150, deadline=None)
    def test_scan_add_block_matches_per_pair_reference(self, pairs, cuts, n, budget):
        sink = Sink()
        counters = Counters()
        buf = ScanPartitionBuffer(n, sink, buffer_bytes=budget, counters=counters)
        for block in blocks(pairs, cuts):
            buf.add_block(block)
        buf.finish()
        assert sink.chunks == reference_scan(pairs, n, budget)
        assert counters[C.MAP_OUTPUT_RECORDS] == len(pairs)

    @given(pair_streams, block_cuts, st.integers(1, 16), st.integers(1, 4000))
    @settings(max_examples=150, deadline=None)
    def test_combiner_add_block_matches_per_pair_reference(self, pairs, cuts, n, budget):
        sink = Sink()
        counters = Counters()
        comb = CheckedCombiner(n, COLLECT, sink, memory_bytes=budget, counters=counters)
        for block in blocks(pairs, cuts):
            comb.add_block(block)
            assert comb._table.used_bytes == remeasured(comb._table)
        comb.finish()
        assert results(sink) == reference_combine(pairs, n, COLLECT, budget)
        assert counters[C.MAP_OUTPUT_RECORDS] == len(pairs)
        assert counters[C.COMBINE_OUTPUT_RECORDS] == len(sink.all_pairs())

    @given(pair_streams, st.integers(1, 16), st.integers(1, 2000))
    @settings(max_examples=60, deadline=None)
    def test_flush_points_do_not_depend_on_what_the_memo_holds(self, pairs, n, budget):
        cold, warm = Sink(), Sink()
        for sink in (cold, warm):
            buf = ScanPartitionBuffer(n, sink, buffer_bytes=budget)
            if sink is warm:
                for key, _ in pairs:
                    if type(key) in (str, int):
                        buf._facts[key]
            buf.add_block(pairs)
            buf.finish()
        assert cold.chunks == warm.chunks

    def test_add_is_a_one_pair_block(self):
        pairs = [(f"k{i % 7}", i) for i in range(200)]
        per_pair, blocked = Sink(), Sink()
        a = CheckedCombiner(3, SUM, per_pair, memory_bytes=600)
        for pair in pairs:
            a.add_block([pair])
        a.finish()
        b = CheckedCombiner(3, SUM, blocked, memory_bytes=600)
        b.add_batch(pairs)
        b.finish()
        assert results(per_pair) == results(blocked)
        assert len(per_pair.chunks) > 3  # more than one flush of the 3 partitions
