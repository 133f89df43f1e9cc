"""Incremental hash: per-key states, early emission, overflow."""

import pickle
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregates import COUNT, SUM
from repro.core.hybrid_hash import SpilledState
from repro.core.incremental import IncrementalHash, count_threshold_policy
from repro.io.disk import LocalDisk
from repro.mapreduce.counters import C, Counters
from tests.core.per_pair import KeepingDisk, cut, incremental_restore, incremental_update


class TestInMemory:
    def test_counts(self):
        ih = IncrementalHash(COUNT)
        for key in "aabbba":
            ih.update(key, 1)
        assert dict(ih.results()) == {"a": 3, "b": 3}

    def test_results_twice_raises(self):
        ih = IncrementalHash(COUNT)
        ih.update("a", 1)
        list(ih.results())
        with pytest.raises(RuntimeError):
            list(ih.results())
        with pytest.raises(RuntimeError):
            ih.update("b", 1)

    def test_merge_state(self):
        ih = IncrementalHash(COUNT)
        partial = COUNT.initial()
        for _ in range(5):
            partial.update(None)
        ih.update("a", SpilledState(partial))
        ih.update("a", 1)
        assert dict(ih.results()) == {"a": 6}


class TestEarlyEmission:
    def test_threshold_emits_once_at_crossing(self):
        ih = IncrementalHash(COUNT, emit_policy=count_threshold_policy(3))
        for _ in range(10):
            ih.update("hot", 1)
        ih.update("cold", 1)
        assert ih.early_emitted == [("hot", 3)]
        assert ih.counters[C.EARLY_EMITS] == 1

    def test_multiple_keys_emit_in_crossing_order(self):
        ih = IncrementalHash(COUNT, emit_policy=count_threshold_policy(2))
        for key in ["a", "b", "b", "a", "c"]:
            ih.update(key, 1)
        assert [k for k, _ in ih.early_emitted] == ["b", "a"]

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            count_threshold_policy(0)

    def test_custom_policy(self):
        ih = IncrementalHash(SUM, emit_policy=lambda key, total: total >= 100)
        ih.update("x", 60)
        assert ih.early_emitted == []
        ih.update("x", 60)
        assert ih.early_emitted == [("x", 120)]


class TestOverflow:
    def test_requires_disk_when_bounded(self):
        with pytest.raises(ValueError):
            IncrementalHash(COUNT, memory_bytes=1024)
        with pytest.raises(ValueError):
            IncrementalHash(COUNT, memory_bytes=0, disk=LocalDisk())

    def test_overflow_exact_results(self):
        disk = LocalDisk()
        ih = IncrementalHash(COUNT, memory_bytes=2048, disk=disk)
        keys = [f"k{i % 101}" for i in range(3000)]
        for key in keys:
            ih.update(key, 1)
        assert ih.overflowed
        assert dict(ih.results()) == dict(Counter(keys))
        assert ih.counters[C.REDUCE_SPILL_BYTES] > 0

    def test_resident_keys_stay_incremental_after_overflow(self):
        disk = LocalDisk()
        ih = IncrementalHash(
            COUNT, memory_bytes=2048, disk=disk, emit_policy=count_threshold_policy(2)
        )
        ih.update("first", 1)
        for i in range(2000):
            ih.update(f"filler{i}", 1)
        assert ih.overflowed
        ih.update("first", 1)
        # Still live in memory: folded and emitted at the crossing update.
        assert ih.early_emitted == [("first", 2)]

    @given(
        st.lists(st.tuples(st.integers(0, 25), st.integers(1, 3)), max_size=300),
        st.sampled_from([512, 4096, 1 << 20]),
    )
    @settings(max_examples=30, deadline=None)
    def test_property_matches_reference(self, pairs, memory):
        disk = LocalDisk()
        ih = IncrementalHash(SUM, memory_bytes=memory, disk=disk)
        expected: dict[int, int] = {}
        for k, v in pairs:
            ih.update(k, v)
            expected[k] = expected.get(k, 0) + v
        assert dict(ih.results()) == expected

    def test_peak_state_counter(self):
        disk = LocalDisk()
        ih = IncrementalHash(COUNT, memory_bytes=1 << 20, disk=disk)
        for i in range(500):
            ih.update(i, 1)
        list(ih.results())
        assert ih.counters[C.HASH_STATE_BYTES_PEAK] > 0


def run_incremental(pairs, cuts, memory, policy):
    """The per-pair reference (``cuts is None``) or ``update_batch`` over the cut stream."""
    disk, counters = KeepingDisk(), Counters()
    ih = IncrementalHash(
        COUNT, memory_bytes=memory, disk=disk, emit_policy=policy, counters=counters
    )
    if cuts is None:
        for key, value in pairs:
            incremental_update(ih, key, value)
    else:
        for chunk in cut(pairs, cuts):
            ih.update_batch(chunk)
    return observe(ih, disk, counters)


def observe(ih, disk, counters):
    table = ih._table
    state = (
        ih.updates,
        ih.overflowed,
        table.frozen,
        table.frozen_bytes,
        [k for k, _ in table.items()],
        ih.used_bytes,
        table.probes,
        ih.spilled_records,
        list(ih.early_emitted),
    )
    output = list(ih.results())
    counts = [(k, v) for k, v in counters.as_dict().items() if not k.startswith("time.")]
    return state, output, counts, disk.stats.snapshot(), disk.deleted


def counted(n):
    state = COUNT.initial()
    for _ in range(n):
        state.update(None)
    return SpilledState(state)


#: ``1``, ``1.0`` and ``True`` share a slot but not a size estimate.
mixed_keys = st.one_of(st.integers(0, 30), st.sampled_from([1, 1.0, "1", True, "k"]))
#: A raw value, or a partial count to merge.
values = st.one_of(st.just(1), st.integers(1, 4).map(lambda n: -n))


def as_pairs(items):
    """Pairs afresh per run: a negative value stands for a partial count."""
    return [(key, counted(-v) if v < 0 else v) for key, v in items]


class TestBatchEquivalence:
    """``update_batch`` is the parent's per-pair ``update``
    (``per_pair.incremental_update``) however the stream is cut."""

    @given(
        st.lists(st.tuples(st.integers(0, 30), st.just(1)), max_size=250),
        st.lists(st.integers(0, 250), max_size=5),
        st.sampled_from([None, 400, 1500, 1 << 20]),
        st.sampled_from([None, 3]),
    )
    @settings(max_examples=80, deadline=None)
    def test_same_freeze_emissions_and_output_however_the_stream_is_cut(
        self, pairs, cuts, memory, threshold
    ):
        policy = count_threshold_policy(threshold) if threshold else None
        assert run_incremental(pairs, None, memory, policy) == run_incremental(
            pairs, cuts, memory, policy
        )

    @given(
        st.lists(st.tuples(mixed_keys, values), max_size=200),
        st.lists(st.integers(0, 200), max_size=5),
        st.sampled_from([1, 300, 1200, None]),
        st.sampled_from([None, 2, 5]),
    )
    @settings(max_examples=80, deadline=None)
    def test_spilled_states_mixed_keys_and_tiny_budgets(self, items, cuts, memory, threshold):
        policy = count_threshold_policy(threshold) if threshold else None
        assert run_incremental(as_pairs(items), None, memory, policy) == run_incremental(
            as_pairs(items), cuts, memory, policy
        )

    @given(
        st.lists(st.tuples(mixed_keys, values), max_size=120),
        st.lists(st.tuples(mixed_keys, values), max_size=120),
        st.lists(st.integers(0, 120), max_size=4),
        st.sampled_from([600, 1 << 20]),
        st.sampled_from([None, 3]),
    )
    @settings(max_examples=60, deadline=None)
    def test_checkpoint_then_restore(self, before, after, cuts, memory, threshold):
        """A restored table equals the parent's merge-per-state restore,
        and so does the log suffix folded after it."""
        policy = count_threshold_policy(threshold) if threshold else None
        runs = []
        for reference in (True, False):
            source = IncrementalHash(COUNT, memory_bytes=memory, disk=LocalDisk(), emit_policy=policy)
            source.update_batch(as_pairs(before))
            payload = source.checkpoint_payload()
            if payload is None:
                return  # overflowed: not checkpointable
            disk, counters = KeepingDisk(), Counters()
            ih = IncrementalHash(
                COUNT, memory_bytes=memory, disk=disk, emit_policy=policy, counters=counters
            )
            ih.restore_payload(payload)
            if reference:
                incremental_restore(ih, pickle.loads(payload)[0])
                for key, value in as_pairs(after):
                    incremental_update(ih, key, value)
            else:
                for chunk in cut(as_pairs(after), cuts):
                    ih.update_batch(chunk)
            runs.append(observe(ih, disk, counters))
        assert runs[0] == runs[1]

    def test_a_budgeted_batch_does_not_enter_update_per_pair(self, monkeypatch):
        def fail(self, key, value):
            raise AssertionError("update_batch fell back to per-pair update")

        monkeypatch.setattr(IncrementalHash, "update", fail)
        ih = IncrementalHash(COUNT, memory_bytes=600, disk=LocalDisk())
        ih.update_batch([(f"k{i % 40}", 1) for i in range(400)])
        assert ih.overflowed and ih.updates == 400
        assert dict(ih.results()) == {f"k{i}": 10 for i in range(40)}
