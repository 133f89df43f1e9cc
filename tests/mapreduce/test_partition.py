"""Stable hashing and partitioning — includes determinism properties."""

import pickle
import subprocess
import sys
import uuid
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mapreduce.partition import HashPartitioner, hash_partitioner, stable_hash

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

    def test_known_values_stable_across_processes(self):
        # The whole point of stable_hash: identical values in a fresh
        # interpreter (str hashes would be salted differently).
        code = (
            "from repro.mapreduce.partition import stable_hash;"
            "print(stable_hash('user-42'), stable_hash(1234567))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        ).stdout.split()
        assert int(out[0]) == stable_hash("user-42")
        assert int(out[1]) == stable_hash(1234567)

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

    def test_callable_class(self):
        p = HashPartitioner()
        assert p("abc", 10) == hash_partitioner("abc", 10)
