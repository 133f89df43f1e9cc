"""LocalDisk semantics and accounting."""

import pytest

from repro.io.device import DeviceProfile, HDD_7200RPM
from repro.io.disk import DiskFullError, DiskStats, LocalDisk


class TestBasicOperations:
    def test_write_read_roundtrip(self, disk):
        disk.write("a", b"hello")
        assert disk.read("a") == b"hello"

    def test_append_accumulates(self, disk):
        disk.append("a", b"one")
        disk.append("a", b"two")
        assert disk.read("a") == b"onetwo"

    def test_append_creates_missing_file(self, disk):
        disk.append("fresh", b"x")
        assert disk.exists("fresh")

    def test_create_empty(self, disk):
        disk.create("empty")
        assert disk.size("empty") == 0
        assert disk.read("empty") == b""

    def test_create_existing_raises(self, disk):
        disk.create("a")
        with pytest.raises(FileExistsError):
            disk.create("a")
        disk.create("a", overwrite=True)  # explicit overwrite allowed

    def test_write_no_overwrite_raises(self, disk):
        disk.write("a", b"1")
        with pytest.raises(FileExistsError):
            disk.write("a", b"2", overwrite=False)

    def test_read_missing_raises(self, disk):
        with pytest.raises(FileNotFoundError):
            disk.read("ghost")

    def test_delete(self, disk):
        disk.write("a", b"1")
        disk.delete("a")
        assert not disk.exists("a")
        with pytest.raises(FileNotFoundError):
            disk.delete("a")

    def test_delete_prefix(self, disk):
        for name in ("spill/1", "spill/2", "out/1"):
            disk.write(name, b"x")
        assert disk.delete_prefix("spill/") == 2
        assert disk.list_files() == ["out/1"]

    def test_rename(self, disk):
        disk.write("src", b"payload")
        disk.rename("src", "dst")
        assert not disk.exists("src")
        assert disk.read("dst") == b"payload"

    def test_rename_over_existing_raises(self, disk):
        disk.write("a", b"1")
        disk.write("b", b"2")
        with pytest.raises(FileExistsError):
            disk.rename("a", "b")

    def test_list_files_sorted_and_filtered(self, disk):
        for name in ("b", "a", "ab"):
            disk.write(name, b"x")
        assert disk.list_files() == ["a", "ab", "b"]
        assert disk.list_files("a") == ["a", "ab"]

    def test_used_tracks_total_bytes(self, disk):
        disk.write("a", b"12345")
        disk.write("b", b"1")
        assert disk.used() == 6
        disk.delete("a")
        assert disk.used() == 1


class TestRangeAndStreaming:
    def test_read_range(self, disk):
        disk.write("a", b"0123456789")
        assert disk.read_range("a", 2, 3) == b"234"
        assert disk.read_range("a", 8, 100) == b"89"

    def test_read_range_bad_offset(self, disk):
        disk.write("a", b"123")
        with pytest.raises(ValueError):
            disk.read_range("a", -1, 1)
        with pytest.raises(ValueError):
            disk.read_range("a", 4, 1)

    def test_stream_reassembles(self, disk):
        payload = bytes(range(256)) * 40
        disk.write("a", payload)
        assert b"".join(disk.stream("a", chunk_size=1000)) == payload

    def test_stream_bad_chunk(self, disk):
        disk.write("a", b"x")
        with pytest.raises(ValueError):
            list(disk.stream("a", chunk_size=0))

    def test_peek_is_unaccounted(self, disk):
        disk.write("a", b"hello")
        before = disk.stats.bytes_read
        assert disk.peek("a") == b"hello"
        assert disk.stats.bytes_read == before


class TestAccounting:
    def test_bytes_and_ops_counted(self, disk):
        disk.write("a", b"12345")
        disk.read("a")
        assert disk.stats.bytes_written == 5
        assert disk.stats.bytes_read == 5
        assert disk.stats.write_ops == 1
        assert disk.stats.read_ops == 1

    def test_sequential_vs_random_classification(self, disk):
        disk.append("a", b"1")   # random (first touch)
        disk.append("a", b"2")   # sequential (same file)
        disk.append("b", b"3")   # random (switch)
        disk.append("a", b"4")   # random (switch back)
        assert disk.stats.sequential_ops == 1
        assert disk.stats.random_ops == 3

    def test_busy_time_uses_profile(self):
        profile = DeviceProfile("slow", seq_bandwidth=100, seek_time=0.5, capacity=10_000)
        d = LocalDisk(profile)
        d.write("a", b"x" * 100)  # random: 1s transfer + 0.5s seek
        assert d.stats.busy_time == pytest.approx(1.5)
        d.append("a", b"x" * 100)  # sequential: 1s
        assert d.stats.busy_time == pytest.approx(2.5)

    def test_snapshot_and_delta(self, disk):
        disk.write("a", b"12345")
        snap = disk.stats.snapshot()
        disk.read("a")
        delta = disk.stats.delta(snap)
        assert delta.bytes_read == 5
        assert delta.bytes_written == 0
        # snapshot is independent of later activity
        assert snap.bytes_read == 0

    def test_total_properties(self):
        s = DiskStats(bytes_read=3, bytes_written=4, read_ops=1, write_ops=2)
        assert s.total_bytes == 7
        assert s.total_ops == 3


class TestCapacity:
    def test_capacity_enforced(self):
        profile = DeviceProfile("tiny", seq_bandwidth=1e6, seek_time=0, capacity=10)
        d = LocalDisk(profile)
        d.write("a", b"x" * 10)
        with pytest.raises(DiskFullError):
            d.append("a", b"y")

    def test_delete_frees_capacity(self):
        profile = DeviceProfile("tiny", seq_bandwidth=1e6, seek_time=0, capacity=10)
        d = LocalDisk(profile)
        d.write("a", b"x" * 10)
        d.delete("a")
        d.write("b", b"y" * 10)
        assert d.read("b") == b"y" * 10

    def test_hdd_profile_has_room(self):
        d = LocalDisk(HDD_7200RPM)
        d.write("a", b"x" * 1_000_000)
        assert d.used() == 1_000_000


class TestRunningTotal:
    """``used()`` is a running total (O(1) capacity check), not a scan."""

    @staticmethod
    def _recomputed(d: LocalDisk) -> int:
        return sum(d.size(path) for path in d.list_files())

    def test_used_matches_recomputed_sum_after_random_ops(self):
        import random

        rng = random.Random(15)
        d = LocalDisk()
        names = [f"d{i % 3}/f{i}" for i in range(9)]
        for step in range(600):
            op = rng.choice(
                ["append", "write", "create", "delete", "prefix", "rename", "preload", "absorb"]
            )
            path = rng.choice(names)
            payload = bytes(rng.randrange(1, 40))
            if op == "append":
                d.append(path, payload)
            elif op == "write":
                d.write(path, payload)
            elif op == "create":
                d.create(path, overwrite=True)
            elif op == "delete" and d.exists(path):
                d.delete(path)
            elif op == "prefix":
                d.delete_prefix(path.split("/")[0] + "/f" + path[-1])
            elif op == "rename" and d.exists(path) and not d.exists(path + ".r"):
                d.rename(path, path + ".r")
                d.rename(path + ".r", path)
            elif op == "preload":
                d.preload({path: payload, rng.choice(names): b""})
            elif op == "absorb":
                shadow = LocalDisk()
                kept, gone = rng.sample(names, 2)
                shadow.preload({kept: b"old", gone: b"old"})
                shadow.append(kept, payload)
                shadow.delete(gone)
                d.absorb(shadow.export_state(preloaded=[kept, gone]))
            assert d.used() == self._recomputed(d), (step, op)
        d.delete_prefix("")
        assert d.used() == 0

    def test_disk_full_fires_at_the_same_append(self):
        profile = DeviceProfile("tiny", seq_bandwidth=1e6, seek_time=0, capacity=100)
        d = LocalDisk(profile)
        d.write("a", b"x" * 40)
        d.write("a", b"x" * 30)  # overwrite frees the first 40
        d.append("b", b"y" * 70)  # exactly full
        with pytest.raises(DiskFullError):
            d.append("c", b"z")
        assert d.used() == 100 and d.size("c") == 0  # the refused file is left empty
        d.delete("b")
        d.append("c", b"z" * 70)
        with pytest.raises(DiskFullError):
            d.append("a", b"!")
