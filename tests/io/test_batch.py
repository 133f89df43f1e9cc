"""RecordBatch framing edge cases: the zero-copy contract under stress.

The batch wire format extends the PR 2 framing; the risky edges are the
degenerate batches (empty, single record), payloads straddling frame
boundaries after truncation, and the lifetime of exported memoryviews
once the backing batch has been spilled and dropped.
"""

import pickle

import pytest

from repro.io.batch import RecordBatch, merge_segments, sort_bucket
from repro.io.disk import LocalDisk
from repro.mapreduce.faults import FaultPlan
from repro.mapreduce.partition import hash_partitioner

PAIRS = [("b", 2), ("a", {"nested": [1, 2]}), ("c", None), ("a", "second-a")]


class TestDegenerateBatches:
    def test_empty_batch(self):
        batch = RecordBatch.from_pairs([])
        assert len(batch) == 0
        assert batch.to_pairs() == []
        assert batch.value_bytes == 0
        assert RecordBatch.decode(batch.encode()).to_pairs() == []
        assert len(batch.sorted_by_key()) == 0
        assert all(len(b) == 0 for b in batch.fanout(hash_partitioner, 4))

    def test_single_record_batch(self):
        batch = RecordBatch.from_pairs([("only", (1, "x"))])
        assert len(batch) == 1
        assert batch.pair_at(0) == ("only", (1, "x"))
        decoded = RecordBatch.decode(batch.encode())
        assert decoded.to_pairs() == [("only", (1, "x"))]
        buckets = batch.fanout(hash_partitioner, 3)
        assert sum(len(b) for b in buckets) == 1

    def test_roundtrip_preserves_order_and_values(self):
        batch = RecordBatch.from_pairs(PAIRS)
        assert RecordBatch.decode(batch.encode()).to_pairs() == PAIRS


class TestZeroCopy:
    def test_select_and_fanout_share_the_value_buffer(self):
        batch = RecordBatch.from_pairs(PAIRS)
        selected = batch.select([2, 0])
        assert selected._values is batch._values
        for bucket in batch.fanout(hash_partitioner, 4):
            assert bucket._values is batch._values
        assert selected.to_pairs() == [PAIRS[2], PAIRS[0]]

    def test_decode_references_the_input_buffer(self):
        """Decoding must not copy payloads: corrupting the encoded buffer
        afterwards is visible through the decoded batch."""
        data = bytearray(RecordBatch.from_pairs([("k", "payload")]).encode())
        batch = RecordBatch.decode(data)
        assert batch.value_at(0) == "payload"
        offset = len(data) - batch._lengths[0]
        data[offset:] = b"\x00" * batch._lengths[0]
        with pytest.raises(pickle.UnpicklingError):
            batch.value_at(0)

    def test_stable_sort_keeps_arrival_order_for_equal_keys(self):
        batch = RecordBatch.from_pairs(PAIRS).sorted_by_key()
        assert batch.to_pairs() == [
            ("a", {"nested": [1, 2]}),
            ("a", "second-a"),
            ("b", 2),
            ("c", None),
        ]


class TestFrameBoundaryStraddling:
    """Every truncation point — mid-header, mid-key, mid-value — must be
    detected, never silently produce a short batch."""

    def test_truncations_raise_at_every_boundary(self):
        data = RecordBatch.from_pairs(PAIRS).encode()
        assert len(RecordBatch.decode(data)) == len(PAIRS)
        for cut in (0, 2, 5, len(data) // 2, len(data) - 1):
            with pytest.raises(ValueError):
                RecordBatch.decode(data[:cut])

    def test_key_value_count_mismatch_detected(self):
        batch = RecordBatch.from_pairs([("k1", 1), ("k2", 2)])
        data = bytearray(batch.encode())
        # Drop the last value frame entirely: counts no longer agree.
        last_len = batch._lengths[-1]
        del data[len(data) - last_len - 4 :]
        with pytest.raises(ValueError, match="keys but"):
            RecordBatch.decode(bytes(data))


class TestMemoryviewLifetime:
    def test_views_survive_batch_release_after_spill(self):
        """`from_pairs` freezes its buffer, so views handed out before a
        spill stay valid after the batch object itself is dropped."""
        batch = RecordBatch.from_pairs(PAIRS)
        views = [batch.value_view(i) for i in range(len(batch))]
        disk = LocalDisk(name="spill-test")
        disk.write("spill/batch-0", batch.encode())
        del batch
        assert [pickle.loads(v) for v in views] == [v for _k, v in PAIRS]

    def test_torn_spill_write_is_detected_on_decode(self):
        """Under LocalDisk fault injection a torn spill page truncates the
        batch mid-frame; decode must raise, not hand back partial rows."""
        disk = LocalDisk(name="faulty")
        disk.fault_injector = FaultPlan(torn_writes={"spill": 1})
        data = RecordBatch.from_pairs(PAIRS).encode()
        disk.write("spill/batch-0", data)
        stored = disk.read("spill/batch-0")
        assert len(stored) < len(data)  # the torn page landed short
        with pytest.raises(ValueError):
            RecordBatch.decode(stored)
        # An untouched path on the same disk still round-trips.
        disk.write("clean/batch-0", data)
        assert RecordBatch.decode(disk.read("clean/batch-0")).to_pairs() == PAIRS


class TestPlainListHelpers:
    def test_sorted_buckets_concatenate_to_global_sort(self):
        pairs = [(f"k{(i * 13) % 7}", i) for i in range(100)]
        tagged = sorted(
            ((hash_partitioner(k, 4), k, v) for k, v in pairs),
            key=lambda r: (r[0], r[1]),
        )
        buckets = [[] for _ in range(4)]
        for pair in pairs:  # fan out in arrival order, as the map-side buffers do
            buckets[hash_partitioner(pair[0], 4)].append(pair)
        flat = [
            (p, k, v)
            for p, bucket in enumerate(buckets)
            for k, v in sort_bucket(bucket)
        ]
        assert flat == tagged

    def test_merge_segments_matches_heap_merge(self):
        import heapq

        segments = [
            sorted((f"k{(i * 7 + s) % 11}", (s, i)) for i in range(40))
            for s in range(3)
        ]
        assert merge_segments(segments) == list(heapq.merge(*segments))
