"""Space-Saving: unit behaviour plus its classical guarantees as properties."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.frequent import SpaceSaving
from repro.workloads.zipf import ZipfSampler

streams = st.lists(st.integers(0, 30), min_size=1, max_size=400)


class TestBasics:
    def test_tracks_up_to_capacity_without_eviction(self):
        ss = SpaceSaving(4)
        for key in "abcd":
            assert ss.offer(key) is None
        assert len(ss) == 4
        assert ss.evictions == 0

    def test_eviction_replaces_minimum(self):
        ss = SpaceSaving(2)
        ss.offer("a")
        ss.offer("a")
        ss.offer("b")
        evicted = ss.offer("c")
        assert evicted == "b"
        assert "c" in ss and "a" in ss and "b" not in ss
        est = ss.estimate("c")
        assert est.count == 2  # inherits victim's count + 1
        assert est.error == 1

    def test_offered_key_always_tracked(self):
        ss = SpaceSaving(3)
        for i in range(100):
            ss.offer(i)
            assert i in ss

    def test_estimate_untracked_is_none(self):
        ss = SpaceSaving(2)
        ss.offer("a")
        assert ss.estimate("zzz") is None

    def test_weighted_offers(self):
        ss = SpaceSaving(2)
        ss.offer("a", count=10)
        assert ss.estimate("a").count == 10
        with pytest.raises(ValueError):
            ss.offer("a", count=0)

    def test_entries_sorted_desc(self):
        ss = SpaceSaving(5)
        for key, n in (("a", 5), ("b", 2), ("c", 9)):
            ss.offer(key, count=n)
        assert [e.key for e in ss.entries()] == ["c", "a", "b"]
        assert [e.key for e in ss.top(2)] == ["c", "a"]

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            SpaceSaving(0)

    def test_heavy_hitters_phi_validation(self):
        ss = SpaceSaving(2)
        ss.offer("a")
        with pytest.raises(ValueError):
            ss.heavy_hitters(0.0)
        with pytest.raises(ValueError):
            ss.heavy_hitters(1.0)


class TestGuarantees:
    @given(streams)
    @settings(max_examples=60)
    def test_count_sum_invariant(self, stream):
        ss = SpaceSaving(8)
        for key in stream:
            ss.offer(key)
        assert sum(e.count for e in ss.entries()) == len(stream)

    @given(streams)
    @settings(max_examples=60)
    def test_estimate_bounds_true_count(self, stream):
        ss = SpaceSaving(8)
        truth = Counter()
        for key in stream:
            ss.offer(key)
            truth[key] += 1
        for entry in ss.entries():
            assert entry.guaranteed <= truth[entry.key] <= entry.count

    @given(streams)
    @settings(max_examples=60)
    def test_frequent_keys_always_tracked(self, stream):
        capacity = 8
        ss = SpaceSaving(capacity)
        truth = Counter()
        for key in stream:
            ss.offer(key)
            truth[key] += 1
        threshold = len(stream) / capacity
        for key, count in truth.items():
            if count > threshold:
                assert key in ss

    @given(streams)
    @settings(max_examples=40)
    def test_error_bounded_by_n_over_k(self, stream):
        capacity = 8
        ss = SpaceSaving(capacity)
        for key in stream:
            ss.offer(key)
        for entry in ss.entries():
            assert entry.error <= len(stream) / capacity

    def test_heap_compaction_keeps_correctness(self):
        # Force many evictions so the lazy heap compacts several times.
        ss = SpaceSaving(4)
        for i in range(5000):
            ss.offer(i % 100)
        assert sum(e.count for e in ss.entries()) == 5000
        assert len(ss) == 4

    def test_compaction_never_compares_keys(self):
        # The rebuild once made (count, 0, key) entries, so a count tie
        # compared an int with a str and raised TypeError.
        ss = SpaceSaving(2)
        for i in range(40):
            ss.offer(1 if i % 2 == 0 else "a")
        assert [(e.key, e.count) for e in ss.entries()] == [(1, 20), ("a", 20)]
        ss = SpaceSaving(3)
        for i in range(300):
            ss.offer((i, "t") if i % 3 == 0 else str(i % 7) if i % 3 == 1 else i % 5)
        assert sum(e.count for e in ss.entries()) == 300
        assert ss.evictions > 0


class TestOnSkewedStream:
    def test_finds_zipf_head(self):
        sampler = ZipfSampler(1000, 1.4, seed=3)
        ss = SpaceSaving(64)
        draws = sampler.draw(50_000)
        truth = Counter(int(x) for x in draws)
        for rank in draws:
            ss.offer(int(rank))
        true_top10 = {k for k, _ in truth.most_common(10)}
        sketch_top = {e.key for e in ss.top(20)}
        assert true_top10 <= sketch_top

    def test_guaranteed_top_is_sound(self):
        sampler = ZipfSampler(500, 1.5, seed=9)
        ss = SpaceSaving(64)
        draws = [int(x) for x in sampler.draw(30_000)]
        truth = Counter(draws)
        ss.offer_all(draws)
        k = 5
        guaranteed = ss.guaranteed_top(k)
        true_topk = {key for key, _ in truth.most_common(k)}
        for entry in guaranteed:
            assert entry.key in true_topk


class TestEntriesOrder:
    @given(
        st.lists(st.one_of(st.integers(0, 20), st.sampled_from(["a", "b", 1.0])), max_size=300),
        st.integers(1, 8),
        st.lists(st.tuples(st.integers(0, 20), st.integers(1, 4)), max_size=20),
    )
    @settings(max_examples=200)
    def test_two_stable_sorts_give_the_one_key_sort_order(self, stream, capacity, weighted):
        # Ties in count and in (count, error) are common in a small sketch.
        ss = SpaceSaving(capacity)
        for key in stream:
            ss.offer(key)
        for key, count in weighted:
            ss.offer(key, count=count)
        tracked = [(k, c, ss._errors[k]) for k, c in ss._counts.items()]
        by_key = sorted(tracked, key=lambda t: (-t[1], t[2]))
        assert [(t.key, t.count, t.error) for t in ss.entries()] == by_key
        assert ss.ranked_keys() == [t[0] for t in by_key]
        for k in (0, 1, capacity // 2, capacity + 1):
            assert ss.top(k) == ss.entries()[:k]
