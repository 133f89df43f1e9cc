"""Stable hashing and partitioning — includes determinism properties."""

import os
import pickle
import subprocess
import sys
import uuid
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.io.serialization import estimate_size
from repro.mapreduce import partition
from repro.mapreduce.partition import KeyFacts, KeyPartitions, hash_partitioner, stable_hash

keys = st.one_of(
    st.text(max_size=30),
    st.integers(-(2**62), 2**62),
    st.binary(max_size=30),
    st.tuples(st.integers(), st.text(max_size=5)),
)


class TestStableHash:
    @given(keys)
    @settings(max_examples=100)
    def test_deterministic_within_process(self, key):
        assert stable_hash(key) == stable_hash(key)

    @given(keys)
    @settings(max_examples=100)
    def test_32bit_range(self, key):
        h = stable_hash(key)
        assert 0 <= h < 2**32

    FROZEN = frozenset({"alpha", "beta", "gamma", "delta", "epsilon", 3, (1, "x")})

    def test_known_values_stable_across_processes(self):
        # The whole point of stable_hash: identical values in a fresh
        # interpreter (str hashes would be salted differently, and a
        # frozenset's iteration order follows that salt).
        code = (
            "from repro.mapreduce.partition import stable_hash;"
            "print(stable_hash('user-42'), stable_hash(1234567), stable_hash(FS))"
        ).replace("FS", repr(self.FROZEN))
        for seed in ("1", "2", "3"):
            out = subprocess.run(
                [sys.executable, "-c", code], capture_output=True, text=True, check=True,
                env={**os.environ, "PYTHONHASHSEED": seed},
            ).stdout.split()  # fmt: skip
            assert int(out[0]) == stable_hash("user-42")
            assert int(out[1]) == stable_hash(1234567)
            assert int(out[2]) == stable_hash(self.FROZEN), seed

    @pytest.mark.parametrize("key", [2**127, -(2**127) - 1, 2**200, uuid.UUID(int=2**128 - 1).int])
    def test_ints_beyond_128_bits_take_the_pickle_fallback(self, key):
        assert stable_hash(key) == zlib.crc32(pickle.dumps(key, protocol=pickle.HIGHEST_PROTOCOL))
        assert 0 <= hash_partitioner(key, 7) < 7

    @pytest.mark.parametrize("key", [0, 1, -1, 1234567, 2**64, 2**127 - 1, -(2**127), True])
    def test_in_range_ints_keep_their_fixed_width_encoding(self, key):
        assert stable_hash(key) == zlib.crc32(int(key).to_bytes(16, "little", signed=True))

    def test_pinned_values(self):
        # Partition assignments are part of every committed digest.
        assert stable_hash(1234567) == 679962222
        assert stable_hash(2**127 - 1) == 3523953978
        assert stable_hash("user-42") == 2097592435
        assert stable_hash((1, "a")) == 4053715506

    @pytest.mark.parametrize("key", [(1, "a"), ("u", 2.5, None, b"x"), (), (2**200, "big")])
    def test_plain_tuples_keep_their_pickle_hash(self, key):
        assert stable_hash(key) == zlib.crc32(pickle.dumps(key, protocol=pickle.HIGHEST_PROTOCOL))

    @pytest.mark.parametrize(
        "equal_keys",
        [
            (1, 1.0, True), (0, 0.0, -0.0, False), (-7, -7.0), (2**80, float(2**80)),
            (int(1e300), 1e300),
            ((1, "a"), (1.0, "a"), (True, "a")),
            (("a", (0, ("b", 2))), ("a", (-0.0, ("b", 2.0))), ("a", (False, ("b", 2)))),
            (frozenset({1, "a"}), frozenset({1.0, "a"}), frozenset({True, "a"})),
            ((frozenset({2, 3}), 1), (frozenset({2.0, 3}), True)),
        ],
    )  # fmt: skip
    def test_equal_keys_hash_equal(self, equal_keys):
        # A group-by must not depend on the reducer count: keys that meet in
        # one reducer's dict (or one sorted run) must meet in one partition.
        assert len(set(equal_keys)) == 1
        assert len({stable_hash(k) for k in equal_keys}) == 1

    @pytest.mark.parametrize("key", [1.5, -0.25, float("inf"), float("-inf"), float("nan")])
    def test_other_floats_keep_the_pickle_path(self, key):
        assert stable_hash(key) == zlib.crc32(pickle.dumps(key, protocol=pickle.HIGHEST_PROTOCOL))

    def test_distinct_types_hash_differently_enough(self):
        # Not a strict requirement, but catches degenerate implementations.
        values = ["a", "b", "c", 1, 2, 3, ("a", 1), b"a"]
        assert len({stable_hash(v) for v in values}) >= 7


class TestHashPartitioner:
    @given(keys, st.integers(1, 64))
    @settings(max_examples=100)
    def test_in_range(self, key, n):
        assert 0 <= hash_partitioner(key, n) < n

    def test_zero_partitions_rejected(self):
        with pytest.raises(ValueError):
            hash_partitioner("k", 0)

    def test_spreads_keys(self):
        n = 8
        counts = [0] * n
        for i in range(4000):
            counts[hash_partitioner(f"key-{i}", n)] += 1
        # Every partition sees a meaningful share (within 2x of fair).
        assert min(counts) > 4000 / n / 2
        assert max(counts) < 4000 / n * 2


def _collect(facts, key):
    """The lookup protocol every collect loop inlines."""
    t = type(key)
    return facts[key] if t is str or t is int else facts.of(key)


class TestKeyFacts:
    #: ``1 == 1.0 == True`` and ``0.0 == -0.0`` share a dict slot but not a
    #: size estimate (28 vs 24); the list is unhashable.
    TRICKY = [1, 1.0, True, "1", b"1", (1,), 0.0, -0.0, [1], 1, "1", 1.0, True, 2**70, None]

    @pytest.mark.parametrize("num_partitions", [1, 4, 7])
    @pytest.mark.parametrize("overhead", [0, 32])
    def test_every_record_gets_the_unmemoised_answer(self, num_partitions, overhead):
        facts = KeyFacts(num_partitions, overhead)
        for key in self.TRICKY * 2:
            assert _collect(facts, key) == (
                hash_partitioner(key, num_partitions),
                estimate_size(key) + overhead,
            ), key

    def test_only_exact_str_and_int_keys_are_remembered(self):
        facts = KeyFacts(4, 32)
        for key in self.TRICKY:
            _collect(facts, key)
        assert sorted(map(repr, facts)) == sorted(map(repr, [1, "1", 2**70]))
        assert all(type(k) in (str, int) for k in facts)

    def test_partitioner_and_estimator_run_once_per_distinct_key(self, monkeypatch):
        calls = []

        def spy(key):
            calls.append(key)
            return len(calls)

        monkeypatch.setattr(partition, "stable_hash", spy)
        facts = KeyFacts(3, 8)
        first = [_collect(facts, k) for k in ("a", "b", 5, "a", 5, "b")]
        assert calls == ["a", "b", 5]
        assert first[3] == first[0] and first[4] == first[2] and first[5] == first[1]

    def test_key_partitions_is_the_partition_half(self, monkeypatch):
        calls = []

        def spy(key):
            calls.append(key)
            return stable_hash(key)

        monkeypatch.setattr(partition, "stable_hash", spy)
        memo = KeyPartitions(4)
        for key in ("k", 7, "k", 7, 2**70, "k"):
            assert memo[key] == stable_hash(key) % 4
        assert calls == ["k", 7, 2**70]

    def test_zero_partitions_rejected_on_first_key(self):
        with pytest.raises(ValueError):
            _collect(KeyFacts(0, 32), "k")
        with pytest.raises(ValueError):
            KeyPartitions(0)["k"]
