"""Hot-key incremental hash: exactness, approximation and spill economics."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregates import COUNT, SUM
from repro.core.frequent import SpaceSaving
from repro.core.hotset import HotSetIncrementalHash
from repro.core.hybrid_hash import SpilledState
from repro.io.disk import LocalDisk
from repro.mapreduce.counters import C, Counters
from repro.workloads.zipf import ZipfSampler
from tests.core.per_pair import KeepingDisk, cut, hotset_update


def make(capacity=8, aggregator=COUNT, **kwargs):
    disk = LocalDisk()
    counters = Counters()
    h = HotSetIncrementalHash(
        aggregator, disk, "hot", capacity=capacity, counters=counters, **kwargs
    )
    return h, disk, counters


class TestExactness:
    def test_small_stream_all_resident(self):
        h, _, counters = make(capacity=16)
        keys = list("aabbccdd")
        for k in keys:
            h.update(k, 1)
        assert dict(h.results()) == dict(Counter(keys))
        assert counters[C.HOT_MISSES] == 0
        assert counters[C.REDUCE_SPILL_BYTES] == 0

    def test_exact_results_with_cold_spills(self):
        h, _, counters = make(capacity=4)
        keys = [f"k{i % 50}" for i in range(2000)]
        for k in keys:
            h.update(k, 1)
        assert dict(h.results()) == dict(Counter(keys))
        assert counters[C.HOT_MISSES] > 0
        assert counters[C.REDUCE_SPILL_BYTES] > 0

    @given(st.lists(st.integers(0, 30), max_size=400), st.sampled_from([2, 8, 64]))
    @settings(max_examples=30, deadline=None)
    def test_property_exact_counts(self, keys, capacity):
        h, _, _ = make(capacity=capacity)
        for k in keys:
            h.update(k, 1)
        assert dict(h.results()) == dict(Counter(keys))

    def test_update_after_results_raises(self):
        h, _, _ = make()
        h.update("a", 1)
        list(h.results())
        with pytest.raises(RuntimeError):
            h.update("b", 1)
        with pytest.raises(RuntimeError):
            list(h.results())

    def test_sum_aggregator(self):
        h, _, _ = make(capacity=3, aggregator=SUM)
        pairs = [(f"k{i % 11}", i % 7) for i in range(500)]
        expected: dict[str, int] = {}
        for k, v in pairs:
            h.update(k, v)
            expected[k] = expected.get(k, 0) + v
        assert dict(h.results()) == expected


class TestApproximation:
    def test_approximate_results_cover_hot_keys(self):
        sampler = ZipfSampler(500, 1.5, seed=4)
        h, _, _ = make(capacity=32, refresh_interval=256)
        draws = [int(x) for x in sampler.draw(20_000)]
        for k in draws:
            h.update(k, 1)
        truth = Counter(draws)
        approx = {a.key: a for a in h.approximate_results()}
        for key, _count in truth.most_common(5):
            assert key in approx

    def test_approximate_counts_are_lower_bounds(self):
        sampler = ZipfSampler(200, 1.3, seed=6)
        h, _, _ = make(capacity=16, refresh_interval=128)
        draws = [int(x) for x in sampler.draw(5_000)]
        for k in draws:
            h.update(k, 1)
        truth = Counter(draws)
        for a in h.approximate_results():
            assert a.result <= truth[a.key]
            assert a.count_estimate >= truth[a.key] - a.count_error

    def test_approximate_before_any_update(self):
        h, _, _ = make()
        assert list(h.approximate_results()) == []


class TestSpillEconomics:
    def test_skew_reduces_spill(self):
        """Hot-key caching must spill far less on skewed keys than uniform."""

        def spill_for(skew: float) -> float:
            sampler = ZipfSampler(2_000, skew, seed=8)
            h, _, counters = make(capacity=256, refresh_interval=512)
            for k in sampler.draw(30_000):
                h.update(int(k), 1)
            list(h.results())
            return counters[C.REDUCE_SPILL_BYTES]

        assert spill_for(1.4) < spill_for(0.0) / 2

    def test_hits_dominate_on_skewed_stream(self):
        sampler = ZipfSampler(1_000, 1.5, seed=10)
        h, _, counters = make(capacity=128)
        for k in sampler.draw(20_000):
            h.update(int(k), 1)
        assert counters[C.HOT_HITS] > 4 * counters[C.HOT_MISSES]

    def test_evictions_counted_on_churn(self):
        h, _, counters = make(capacity=4, refresh_interval=16)
        # Rotate hot keys so the resident set must churn.
        for round_ in range(20):
            for i in range(8):
                for _ in range(4):
                    h.update(f"r{round_}-k{i}", 1)
        list(h.results())
        assert counters[C.HOT_EVICTIONS] > 0


class TestValidation:
    def test_capacity(self):
        with pytest.raises(ValueError):
            HotSetIncrementalHash(COUNT, LocalDisk(), "x", capacity=0)

    @pytest.mark.parametrize("interval", [0, -1])
    def test_refresh_interval_below_one(self, interval):
        # -1 used to hang update_batch (its segments walked backwards) and
        # 0 silently meant the default.
        with pytest.raises(ValueError, match="refresh_interval"):
            HotSetIncrementalHash(COUNT, LocalDisk(), "x", capacity=2, refresh_interval=interval)

    def test_refresh_interval_default_and_one(self):
        assert make(capacity=4)[0].refresh_interval == 2048
        h, _, _ = make(capacity=2, refresh_interval=1)
        h.update_batch([(1, 1), (2, 1), (3, 1)])
        assert dict(h.results()) == {1: 1, 2: 1, 3: 1}

    def test_spill_partitions_below_two(self):
        with pytest.raises(ValueError, match="spill_partitions"):
            HotSetIncrementalHash(COUNT, LocalDisk(), "x", capacity=2, spill_partitions=1)


def run_hotset(items, cuts, capacity, refresh, aggregator):
    """Fold ``items`` per pair (``cuts is None``) or as ``update_batch`` of
    the cut chunks; everything the fold leaves behind.  A partial is a
    SUM's total, or a COUNT's spilled state."""
    disk, counters = KeepingDisk(), Counters()
    h = HotSetIncrementalHash(
        aggregator, disk, "hot", capacity=capacity, refresh_interval=refresh, counters=counters
    )
    pairs = []
    for key, value, as_state in items:
        if as_state:
            state = aggregator.initial()
            state.update(value)
            value = state.result() if aggregator is SUM else SpilledState(state)
        pairs.append((key, value))
    if cuts is None:
        for key, value in pairs:
            hotset_update(h, key, value)
    else:
        for chunk in cut(pairs, cuts):
            h.update_batch(chunk)
    sketch = h.sketch
    live = (
        h.updates,
        h.resident_keys,
        h.spilled_records,
        h._table.used_bytes,
        h._table.probes,
        [(a.key, a.result, a.count_estimate, a.count_error) for a in h.approximate_results()],
        sketch.entries(),
        sketch.total,
        sketch.evictions,
    )
    output = list(h.results())
    return live, output, list(counters.as_dict().items()), disk.stats.snapshot(), disk.deleted


keys = st.one_of(st.integers(0, 9), st.sampled_from(["a", "b", "c", "d", 1.0, "1", True]))


class TestBatchFold:
    """``update_batch`` is the parent's per-pair fold
    (``per_pair.hotset_update``) however the stream is cut."""

    @given(
        st.lists(st.tuples(keys, st.integers(0, 5), st.booleans()), max_size=200),
        st.lists(st.integers(0, 200), max_size=6),
        st.sampled_from([1, 2, 5]),
        st.sampled_from([1, 3, 2048]),
        st.sampled_from([SUM, COUNT]),
    )
    @settings(max_examples=150, deadline=None)
    def test_same_state_counters_and_spills_as_per_pair(
        self, items, cuts, capacity, refresh, aggregator
    ):
        assert run_hotset(items, cuts, capacity, refresh, aggregator) == run_hotset(
            items, None, capacity, refresh, aggregator
        )

    def test_a_chunk_does_not_enter_the_per_pair_methods(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("update_batch fell back to a per-pair method")

        monkeypatch.setattr(SpaceSaving, "offer", fail)
        h, _, counters = make(capacity=4, refresh_interval=16)
        h.update_batch([(f"k{i % 10}", 1) for i in range(100)])
        assert h.updates == 100
        assert counters[C.HOT_HITS] + counters[C.HOT_MISSES] == 100
        # The cold replay folds through the grouper's table too.
        assert dict(h.results()) == {f"k{i}": 10 for i in range(10)}


def sketch_state(ss):
    return (list(ss._counts.items()), list(ss._errors.items()), list(ss._heap),
            ss._seq, ss.total, ss.evictions)  # fmt: skip


class TestOfferAll:
    @given(
        st.lists(keys, min_size=50, max_size=300),
        st.lists(st.integers(0, 300), max_size=5),
        st.integers(1, 5),
    )
    @settings(max_examples=150, deadline=None)
    def test_offer_all_is_an_offer_loop(self, stream, cuts, capacity):
        one, many = SpaceSaving(capacity), SpaceSaving(capacity)
        for key in stream:
            one.offer(key)
        edges = [0, *sorted(min(c, len(stream)) for c in cuts), len(stream)]
        for a, b in zip(edges, edges[1:]):
            many.offer_all(stream[a:b])
            assert len(many._heap) <= 8 * capacity  # compacted as offer compacts
        assert sketch_state(many) == sketch_state(one)
