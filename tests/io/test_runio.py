"""Run writers/readers over LocalDisk."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pickle

from repro.io.disk import LocalDisk
from repro.io.runio import (
    Framed,
    KeyedRun,
    RunWriter,
    frame_records,
    segment_pairs,
    stream_frames,
    stream_pieces,
    stream_run,
    write_run,
)
from repro.io.serialization import encode_frames

pairs = st.lists(
    st.tuples(st.integers(-1000, 1000), st.text(max_size=20)), max_size=200
)


class TestRunWriter:
    def test_roundtrip(self, disk):
        items = [(i, f"v{i}") for i in range(100)]
        nbytes = write_run(disk, "run0", items)
        assert nbytes > 0
        assert list(stream_run(disk, "run0")) == items

    def test_stream_matches_read(self, disk):
        items = [(i, "x" * (i % 7)) for i in range(500)]
        write_run(disk, "run0", items)
        assert list(stream_run(disk, "run0", chunk_size=256)) == items

    def test_empty_run(self, disk):
        write_run(disk, "empty", [])
        assert disk.read("empty") == b""
        assert list(stream_run(disk, "empty")) == []

    def test_counts(self, disk):
        with RunWriter(disk, "run0") as w:
            w.write_all(range(10))
        assert w.records_written == 10
        assert w.bytes_written == disk.size("run0")

    def test_write_after_close_raises(self, disk):
        w = RunWriter(disk, "run0")
        w.close()
        with pytest.raises(ValueError):
            w.write(1)

    def test_flush_batches_disk_ops(self, disk):
        # With a large flush threshold the whole run is one disk append.
        before = disk.stats.write_ops
        write_run(disk, "run0", range(1000))
        assert disk.stats.write_ops - before <= 2  # create() doesn't count

    def test_small_flush_threshold_multiple_appends(self, disk):
        w = RunWriter(disk, "run0", flush_bytes=64)
        before = disk.stats.write_ops
        w.write_all(range(100))
        w.close()
        assert disk.stats.write_ops - before > 5

    @given(
        pairs,
        st.lists(st.integers(0, 200), max_size=6),
        st.sampled_from([-5, 0, 1, 64, 65, 128, 200, 1000, 1 << 22]),
    )
    @settings(max_examples=80, deadline=None)
    def test_write_all_keeps_the_per_record_flush_points(self, items, cuts, flush_bytes):
        """Cut anywhere, ``write_all`` appends the chunks a per-record
        writer charging 64 bytes a record would, at the same records."""
        expected, pending, charged = [], [], 0
        for item in items:
            pending.append(item)
            charged += 64
            if charged >= flush_bytes:
                expected.append(encode_frames(pending))
                pending, charged = [], 0
        if pending:
            expected.append(encode_frames(pending))
        disk = LocalDisk()
        appended = []
        append = disk.append
        disk.append = lambda path, data: (appended.append(bytes(data)), append(path, data))[1]
        edges = [0, *sorted(min(c, len(items)) for c in cuts), len(items)]
        with RunWriter(disk, "run0", flush_bytes=flush_bytes) as w:
            for a, b in zip(edges, edges[1:]):
                w.write_all(items[a:b])
        assert appended == expected
        assert w.records_written == len(items)
        assert w.bytes_written == disk.size("run0") == sum(map(len, expected))

    def test_overwrites_previous_run(self, disk):
        write_run(disk, "run0", [1, 2, 3])
        write_run(disk, "run0", [4])
        assert list(stream_run(disk, "run0")) == [4]

    @given(pairs)
    @settings(max_examples=30)
    def test_property_roundtrip(self, items):
        disk = LocalDisk()
        write_run(disk, "r", items)
        assert list(stream_run(disk, "r", chunk_size=128)) == items

    def test_stream_detects_truncation(self, disk):
        write_run(disk, "r", [("key", "value" * 50)])
        data = disk.read("r")
        disk.write("r", data[: len(data) - 3], overwrite=True)
        with pytest.raises(ValueError):
            list(stream_run(disk, "r"))


class TestChunkedReader:
    """``stream_run`` decodes a chunk at a time; frames may straddle chunks."""

    ITEMS = [("k", i, "v" * (i % 9)) for i in range(40)] + [("big", "x" * 300)]

    @pytest.mark.parametrize("chunk_size", [1, 5, 64])
    def test_frames_straddle_the_chunk_boundary_at_every_offset(self, disk, chunk_size):
        # A pad frame of every length 0..chunk_size+8 shifts all later frame
        # boundaries through every position relative to the chunk boundary.
        for pad in range(chunk_size + 9):
            items = [b"p" * pad, *self.ITEMS]
            write_run(disk, "r", items)
            before = disk.stats.read_ops
            assert list(stream_run(disk, "r", chunk_size=chunk_size)) == items
            size = disk.size("r")
            assert disk.stats.read_ops - before == -(-size // chunk_size)

    @pytest.mark.parametrize("chunk_size", [1, 5, 64])
    def test_truncated_header_and_payload_both_raise(self, disk, chunk_size):
        data = encode_frames(self.ITEMS)
        last = len(encode_frames(self.ITEMS[-1:]))
        for cut in (len(data) - last + 2, len(data) - 3):  # mid-header, mid-payload
            disk.write("r", data[:cut], overwrite=True)
            with pytest.raises(ValueError, match="truncated trailing frame in r"):
                list(stream_run(disk, "r", chunk_size=chunk_size))
            with pytest.raises(ValueError, match="truncated trailing frame in r"):
                list(stream_frames(disk, "r", chunk_size=chunk_size))
            with pytest.raises(ValueError, match="truncated trailing frame in r"):
                list(stream_pieces(disk, "r", chunk_size=chunk_size))


class TestCarriedFrames:
    PAIRS = [(f"k{i:03d}", (i, "v" * (i % 5))) for i in range(50)]

    def test_keyed_run_decodes_once_and_pickles_as_bytes_and_keys(self):
        data = encode_frames(self.PAIRS)
        seg = KeyedRun(data, [k for k, _ in self.PAIRS])
        assert segment_pairs(seg) == self.PAIRS
        assert segment_pairs(list(self.PAIRS)) == self.PAIRS  # a plain list is its own
        blob = pickle.dumps(seg, protocol=pickle.HIGHEST_PROTOCOL)
        clone = pickle.loads(blob)
        assert type(clone) is KeyedRun and clone == seg
        keys_blob = pickle.dumps(seg.keys, protocol=pickle.HIGHEST_PROTOCOL)
        assert len(blob) < len(data) + len(keys_blob) + 100  # no decoded values beside them

    def test_frame_records_reuses_or_encodes(self):
        data = encode_frames(self.PAIRS)
        carried = frame_records(KeyedRun(data, [k for k, _ in self.PAIRS]))
        fresh = frame_records(list(self.PAIRS))
        assert (carried[0], carried[1][:]) == (fresh[0], fresh[1][:])
        keys, frames = carried
        assert keys == [k for k, _ in self.PAIRS]
        assert b"".join(frames[:]) == data
        assert frames[3:5] == frames[:][3:5] and len(frames) == len(self.PAIRS)

    def test_frame_records_rejects_a_mutated_segment(self):
        seg = KeyedRun(encode_frames(self.PAIRS), [k for k, _ in self.PAIRS] + ["extra"])
        with pytest.raises(ValueError):
            frame_records(seg)

    def test_framed_stream_is_written_as_it_is(self, disk):
        data = encode_frames(self.PAIRS)
        write_run(disk, "plain", self.PAIRS)
        keys: list = []
        assert write_run(disk, "plain", self.PAIRS, keys) == len(data)
        assert keys == [k for k, _ in self.PAIRS]  # noted for the run's next reader
        _, frames = frame_records(KeyedRun(data, keys))
        nbytes = write_run(disk, "framed", Framed(iter(frames[:]), keys))
        assert nbytes == len(data)
        assert disk.peek("framed") == disk.peek("plain") == data

    @pytest.mark.parametrize("chunk_size", [7, 1 << 20])
    def test_stream_frames_decodes_keys_or_takes_them(self, disk, chunk_size):
        write_run(disk, "r", self.PAIRS)
        keys, frames = frame_records(list(self.PAIRS))
        frames = frames[:]

        def joined(pieces):
            pieces = list(pieces)
            assert len(pieces) == -(-disk.size("r") // chunk_size)  # one per piece read
            return [k for ks, _ in pieces for k in ks], [f for _, fs in pieces for f in fs[:]]

        assert joined(stream_frames(disk, "r", chunk_size=chunk_size)) == (keys, frames)
        calls = []
        orig = pickle.loads
        try:
            pickle.loads = lambda *a, **k: calls.append(1) or orig(*a, **k)
            assert joined(stream_frames(disk, "r", keys, chunk_size)) == (keys, frames)
            payloads = joined(stream_frames(disk, "r", keys, chunk_size, payloads=True))[1]
        finally:
            pickle.loads = orig
        assert not calls  # held keys: nothing is unpickled
        assert [pickle.loads(p) for p in payloads] == self.PAIRS

    def test_stream_frames_checks_the_count_against_the_keys(self, disk):
        write_run(disk, "r", self.PAIRS)
        for keys in (["k"] * 49, ["k"] * 51):
            with pytest.raises(ValueError, match="r holds 50 frames"):
                list(stream_frames(disk, "r", keys))

    def test_write_run_appends_one_chunk_per_65536_records(self, disk):
        for n, appends in ((0, 0), (1, 1), (65536, 1), (65537, 2)):
            before = disk.stats.write_ops
            write_run(disk, "r", iter(range(n)))
            assert disk.stats.write_ops - before == appends
            assert disk.exists("r")
