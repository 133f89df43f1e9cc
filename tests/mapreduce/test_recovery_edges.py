"""Recovery edge cases: corrupt replicas, torn writes, short reads, replays.

Complements ``test_recovery.py``: these fixtures attack the durable state
itself — checksum-rejected checkpoints, truncated partition-log replicas,
seeded disk faults via :class:`FaultPlan` — and verify the recovery layer
detects the damage and falls back instead of returning corrupt bytes.
"""

import pytest

from repro.io.disk import LocalDisk
from repro.mapreduce.counters import C, Counters
from repro.mapreduce.faults import FaultPlan
from repro.mapreduce.recovery import CheckpointStore, PartitionLog


def two_replicas():
    return [("n0", LocalDisk(name="n0")), ("n1", LocalDisk(name="n1"))]


def _corrupt(disk, path):
    """Flip a byte in the middle of ``path`` (checksums must catch this)."""
    data = bytearray(disk.peek(path))
    data[len(data) // 2] ^= 0xFF
    disk.write(path, bytes(data), overwrite=True)


def _truncate(disk, path):
    """Cut ``path`` to half its length (a torn trailing frame)."""
    data = disk.peek(path)
    disk.write(path, data[: len(data) // 2], overwrite=True)


class TestCheckpointCorruption:
    def test_one_corrupt_replica_falls_back_to_other(self):
        counters = Counters()
        replicas = two_replicas()
        store = CheckpointStore(0, replicas, counters)
        store.save(7, b"state-at-7")
        _corrupt(replicas[0][1], "faultchk/p000/s000007")

        assert store.latest() == (7, b"state-at-7")
        assert counters[C.CHECKPOINT_REJECTED] == 1

    def test_all_replicas_corrupt_falls_back_to_prior_seq(self):
        counters = Counters()
        replicas = two_replicas()
        store = CheckpointStore(0, replicas, counters)
        store.save(3, b"old-state")
        store.save(7, b"new-state")
        for _, disk in replicas:
            _corrupt(disk, "faultchk/p000/s000007")

        assert store.latest() == (3, b"old-state")
        assert counters[C.CHECKPOINT_REJECTED] == 2

    def test_truncated_payload_rejected(self):
        counters = Counters()
        replicas = two_replicas()
        store = CheckpointStore(0, replicas, counters)
        store.save(1, b"a longer payload than the crc header")
        for _, disk in replicas:
            _truncate(disk, "faultchk/p000/s000001")

        assert store.latest() is None
        assert counters[C.CHECKPOINT_REJECTED] == 2

    def test_payload_shorter_than_header_rejected(self):
        counters = Counters()
        replicas = two_replicas()
        store = CheckpointStore(0, replicas, counters)
        store.save(1, b"payload")
        for _, disk in replicas:
            disk.write("faultchk/p000/s000001", b"\x01", overwrite=True)

        assert store.latest() is None
        assert counters[C.CHECKPOINT_REJECTED] == 2

    def test_everything_corrupt_and_empty_both_yield_none(self):
        assert CheckpointStore(0, two_replicas(), Counters()).latest() is None


class TestPartitionLogCorruption:
    def test_truncated_replica_falls_back(self):
        counters = Counters()
        replicas = two_replicas()
        log = PartitionLog(0, replicas, counters)
        log.append([("a", 1), ("b", 2)], nbytes=10)
        log.append([("c", 3)], nbytes=5)
        _truncate(replicas[0][1], "faultlog/p000/c000001")

        replayed = [(seq, pairs) for seq, pairs, _ in log.replay()]
        assert replayed == [(1, [("a", 1), ("b", 2)]), (2, [("c", 3)])]
        assert counters[C.LOG_REPLICAS_REJECTED] == 1

    def test_all_replicas_truncated_raises(self):
        counters = Counters()
        replicas = two_replicas()
        log = PartitionLog(0, replicas, counters)
        log.append([("a", 1), ("b", 2)], nbytes=10)
        for _, disk in replicas:
            _truncate(disk, "faultlog/p000/c000001")

        with pytest.raises(FileNotFoundError, match="replicas"):
            list(log.replay())
        assert counters[C.LOG_REPLICAS_REJECTED] == 2

    def test_replay_is_idempotent(self):
        log = PartitionLog(0, two_replicas(), Counters())
        log.append([("a", 1)], nbytes=4)
        log.append([("b", 2)], nbytes=4)
        first = [(seq, pairs) for seq, pairs, _ in log.replay()]
        second = [(seq, pairs) for seq, pairs, _ in log.replay()]
        assert first == second == [(1, [("a", 1)]), (2, [("b", 2)])]


class TestDiskFaultInjection:
    def test_torn_write_detected_by_checkpoint_crc(self):
        counters = Counters()
        replicas = two_replicas()
        plan = FaultPlan(torn_writes={"faultchk/": 1})
        replicas[0][1].fault_injector = plan
        store = CheckpointStore(0, replicas, counters)
        store.save(5, b"state worth checkpointing")

        assert plan.torn_writes_injected == 1
        # The torn replica fails its crc; the clean one serves the bytes.
        assert store.latest() == (5, b"state worth checkpointing")
        assert counters[C.CHECKPOINT_REJECTED] == 1

    def test_short_read_detected_by_log_framing(self):
        counters = Counters()
        replicas = two_replicas()
        plan = FaultPlan(short_reads={"faultlog/": 1})
        replicas[0][1].fault_injector = plan
        log = PartitionLog(0, replicas, counters)
        log.append([("a", 1), ("b", 2)], nbytes=10)

        replayed = [(seq, pairs) for seq, pairs, _ in log.replay()]
        assert replayed == [(1, [("a", 1), ("b", 2)])]
        assert plan.short_reads_injected == 1
        # The framing catches the short read; the re-read of the same
        # replica is whole, so no replica is rejected.
        assert counters[C.LOG_REPLICAS_REJECTED] == 0

    def test_a_short_read_on_every_replica_loses_no_entry(self):
        # One short read per replica, both intact on disk: a short read is
        # transient, so the entry replays.
        counters = Counters()
        replicas = two_replicas()
        plan = FaultPlan(short_reads={"faultlog/": 2})
        for _, disk in replicas:
            disk.fault_injector = plan
        log = PartitionLog(0, replicas, counters)
        pairs = [(f"k{i}", i) for i in range(50)]
        log.append(pairs, nbytes=500)

        assert [(seq, got) for seq, got, _ in log.replay()] == [(1, pairs)]
        assert plan.short_reads_injected == 2

    def test_fault_budget_is_consumed(self):
        plan = FaultPlan(torn_writes={"x/": 1})
        disk = LocalDisk()
        disk.fault_injector = plan
        disk.append("x/a", b"0123456789")
        disk.append("x/b", b"0123456789")
        assert disk.size("x/a") == 5  # torn: only the leading half landed
        assert disk.size("x/b") == 10  # budget exhausted
        assert not FaultPlan().has_disk_faults
        assert plan.has_disk_faults

    def test_single_byte_writes_never_torn_to_nothing(self):
        plan = FaultPlan(torn_writes={"x/": 5})
        disk = LocalDisk()
        disk.fault_injector = plan
        disk.append("x/tiny", b"z")
        assert disk.peek("x/tiny") == b"z"

    def test_negative_disk_fault_counts_rejected(self):
        with pytest.raises(ValueError, match="disk-fault"):
            FaultPlan(torn_writes={"x/": -1})
        with pytest.raises(ValueError, match="disk-fault"):
            FaultPlan(short_reads={"x/": -2})

    def test_random_plan_rates_are_deterministic(self):
        kw = dict(num_map_tasks=4, num_reducers=2,
                  torn_write_rate=1.0, short_read_rate=1.0)
        a = FaultPlan.random(11, **kw)
        b = FaultPlan.random(11, **kw)
        assert a.torn_writes == b.torn_writes
        assert a.short_reads == b.short_reads
        assert "faultchk/" in a.torn_writes
        assert "faultlog/" in a.short_reads

        off = FaultPlan.random(11, num_map_tasks=4, num_reducers=2)
        assert not off.has_disk_faults
