"""Recovery primitives: retry policy, speculation, lineage, logs, checkpoints."""

import pytest

from repro.io.disk import LocalDisk
from repro.mapreduce.counters import C, Counters
from repro.mapreduce.faults import FaultPlan
from repro.mapreduce.recovery import (
    CheckpointStore,
    FetchRetryPolicy,
    PartitionLog,
    RecoveryManager,
    SpeculationPolicy,
    StragglerDetector,
    TaskLineage,
)


class TestFetchRetryPolicy:
    def test_backoff_doubles_then_caps(self):
        policy = FetchRetryPolicy(base_backoff_ms=100.0, max_backoff_ms=800.0)
        assert [policy.backoff_ms(a) for a in range(1, 6)] == [
            100.0,
            200.0,
            400.0,
            800.0,
            800.0,
        ]

    def test_attempt_is_one_based(self):
        with pytest.raises(ValueError):
            FetchRetryPolicy().backoff_ms(0)

    def test_validation(self):
        with pytest.raises(ValueError):
            FetchRetryPolicy(max_retries=0)
        with pytest.raises(ValueError):
            FetchRetryPolicy(base_backoff_ms=200.0, max_backoff_ms=100.0)


class TestStragglerDetector:
    def test_needs_baseline_before_flagging(self):
        detector = StragglerDetector(SpeculationPolicy(min_completed=2))
        assert not detector.is_straggler(10_000.0)
        detector.record(10.0)
        assert not detector.is_straggler(10_000.0)
        detector.record(10.0)
        assert detector.is_straggler(10_000.0)

    def test_threshold_is_relative_to_mean(self):
        detector = StragglerDetector(SpeculationPolicy(slowdown_threshold=1.5))
        detector.record(100.0)
        detector.record(100.0)
        assert detector.mean_ms == 100.0
        assert not detector.is_straggler(150.0)  # exactly at threshold
        assert detector.is_straggler(151.0)

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            SpeculationPolicy(slowdown_threshold=1.0)
        with pytest.raises(ValueError):
            SpeculationPolicy(min_completed=0)
        with pytest.raises(ValueError):
            SpeculationPolicy(base_rate_bytes_per_ms=0)


class TestTaskLineage:
    def test_tracks_node_and_bytes(self):
        lineage = TaskLineage()
        lineage.record(0, "node00", 100)
        lineage.record(1, "node01", 200)
        lineage.record(2, "node00", 300)
        assert lineage.node_of(1) == "node01"
        assert lineage.bytes_of(2) == 300
        assert lineage.tasks_on("node00") == [0, 2]
        assert len(lineage) == 3

    def test_forget_is_idempotent(self):
        lineage = TaskLineage()
        lineage.record(0, "node00", 100)
        lineage.forget(0)
        lineage.forget(0)
        assert lineage.node_of(0) is None
        assert lineage.bytes_of(0) == 0
        assert lineage.tasks_on("node00") == []

    def test_rerun_overwrites_location(self):
        lineage = TaskLineage()
        lineage.record(0, "node00", 100)
        lineage.record(0, "node02", 100)
        assert lineage.tasks_on("node00") == []
        assert lineage.node_of(0) == "node02"


class TestRecoveryManagerMap:
    def test_retries_land_on_next_candidate(self):
        counters = Counters()
        manager = RecoveryManager(FaultPlan(map_failures={7: 2}), counters)
        ran, discarded = [], []
        node, result = manager.run_map_task(
            7,
            manager.map_candidates(7, "a", ["a", "b", "c"]),
            1024,
            "out@a",  # the wave-run first attempt, handed in
            attempt_fn=lambda n: ran.append(n) or f"out@{n}",
            discard_fn=lambda n, r: discarded.append((n, r)),
        )
        assert ran == ["b", "c"]
        assert (node, result) == ("c", "out@c")
        # Dead attempts were cleaned up and charged.
        assert discarded == [("a", "out@a"), ("b", "out@b")]
        assert counters[C.MAP_TASK_RETRIES] == 2

    def test_exhaustion_aborts(self):
        manager = RecoveryManager(
            FaultPlan(map_failures={0: 99}, max_attempts=3), Counters()
        )
        with pytest.raises(RuntimeError, match="exhausted 3 attempts"):
            manager.run_map_task(0, ["a", "b"], 1, None, lambda n: None, lambda n, r: None)

    def test_no_live_nodes_is_an_error(self):
        manager = RecoveryManager(FaultPlan(), Counters())
        with pytest.raises(RuntimeError, match="no live nodes"):
            manager.map_candidates(0, "a", [])

    def test_no_plan_means_single_attempt(self):
        manager = RecoveryManager(None, Counters())
        ran = []
        node, result = manager.run_map_task(
            0, ["a"], 1, "first", lambda n: ran.append(n), lambda n, r: None
        )
        assert ran == []  # the handed-in first attempt is the only one
        assert (node, result) == ("a", "first")


class TestRecoveryManagerSpeculation:
    def plan(self):
        return FaultPlan(slow_nodes={"slow": 10.0})

    def warmed_manager(self, counters):
        manager = RecoveryManager(
            self.plan(),
            counters,
            speculation=SpeculationPolicy(min_completed=1),
        )
        # Baseline: one fast task completed.
        manager.run_map_task(0, ["fast", "slow"], 1024, "x", lambda n: "x", lambda n, r: None)
        return manager

    def test_backup_beats_straggler(self):
        counters = Counters()
        manager = self.warmed_manager(counters)
        discarded = []
        node, result = manager.run_map_task(
            1,
            ["slow", "fast"],
            1024,
            "out@slow",
            attempt_fn=lambda n: f"out@{n}",
            discard_fn=lambda n, r: discarded.append((n, r)),
        )
        # The backup on the fast node wins; the original is killed.
        assert (node, result) == ("fast", "out@fast")
        assert discarded == [("slow", "out@slow")]
        assert counters[C.SPECULATIVE_LAUNCHED] == 1
        assert counters[C.SPECULATIVE_WINS] == 1
        assert counters[C.SPECULATIVE_WASTED_MS] > 0

    def test_mild_straggler_backup_loses(self):
        """A backup races the straggler's *remaining* time (it launches
        one mean-duration late), so a mild straggler keeps its win."""
        counters = Counters()
        manager = RecoveryManager(
            FaultPlan(slow_nodes={"slow": 2.0}),
            counters,
            speculation=SpeculationPolicy(min_completed=1),
        )
        manager.run_map_task(0, ["fast", "slow"], 1024, "x", lambda n: "x", lambda n, r: None)
        discarded = []
        node, result = manager.run_map_task(
            1,
            ["slow", "fast"],
            1024,
            "out@slow",
            attempt_fn=lambda n: f"out@{n}",
            discard_fn=lambda n, r: discarded.append((n, r)),
        )
        assert (node, result) == ("slow", "out@slow")
        assert discarded == [("fast", "out@fast")]
        assert counters[C.SPECULATIVE_LAUNCHED] == 1
        assert counters[C.SPECULATIVE_WINS] == 0
        assert counters[C.SPECULATIVE_WASTED_MS] > 0

    def test_no_speculation_on_fast_node(self):
        counters = Counters()
        manager = self.warmed_manager(counters)
        node, _ = manager.run_map_task(
            2, ["fast", "slow"], 1024, "y", lambda n: "y", lambda n, r: None
        )
        assert node == "fast"
        assert counters[C.SPECULATIVE_LAUNCHED] == 0

    def test_simulated_duration_uses_slowdown(self):
        manager = RecoveryManager(self.plan(), Counters())
        fast = manager.simulated_task_ms(64 * 1024, "fast")
        slow = manager.simulated_task_ms(64 * 1024, "slow")
        assert slow == pytest.approx(10.0 * fast)


class TestRecoveryManagerReduce:
    def test_retry_passes_attempt_index(self):
        counters = Counters()
        manager = RecoveryManager(FaultPlan(reduce_failures={2: 2}), counters)
        seen = []
        result = manager.run_reduce_task(2, lambda i: seen.append(i) or f"r{i}")
        assert seen == [0, 1, 2]
        assert result == "r2"
        assert counters[C.REDUCE_TASK_RETRIES] == 2

    def test_exhaustion_aborts(self):
        manager = RecoveryManager(
            FaultPlan(reduce_failures={0: 99}, max_attempts=2), Counters()
        )
        with pytest.raises(RuntimeError, match="reduce task 0 exhausted"):
            manager.run_reduce_task(0, lambda i: None)


def two_replicas():
    return [("n0", LocalDisk(name="n0")), ("n1", LocalDisk(name="n1"))]


class TestPartitionLog:
    def test_append_replay_roundtrip(self):
        counters = Counters()
        log = PartitionLog(0, two_replicas(), counters)
        assert log.append([("a", 1), ("b", 2)], nbytes=10) == 1
        assert log.append([("c", 3)], nbytes=5) == 2
        replayed = list(log.replay())
        assert [(seq, pairs) for seq, pairs, _ in replayed] == [
            (1, [("a", 1), ("b", 2)]),
            (2, [("c", 3)]),
        ]
        assert log.last_seq == 2
        # Every byte was written once per replica.
        assert counters[C.LOG_BYTES] == 2 * log.total_bytes

    def test_replay_after_seq_skips_prefix(self):
        log = PartitionLog(0, two_replicas(), Counters())
        log.append([("a", 1)], 1)
        log.append([("b", 2)], 1)
        log.append([("c", 3)], 1)
        assert [seq for seq, _, _ in log.replay(after_seq=2)] == [3]

    def test_replay_survives_one_replica_loss(self):
        replicas = two_replicas()
        log = PartitionLog(0, replicas, Counters())
        log.append([("a", 1)], 1)
        replicas[0][1].delete_prefix("")
        assert [pairs for _, pairs, _ in log.replay()] == [[("a", 1)]]

    def test_total_loss_raises(self):
        replicas = two_replicas()
        log = PartitionLog(0, replicas, Counters())
        log.append([("a", 1)], 1)
        for _, disk in replicas:
            disk.delete_prefix("")
        with pytest.raises(FileNotFoundError, match="replicas"):
            list(log.replay())

    def test_replace_replica_redirects_future_appends(self):
        replicas = two_replicas()
        log = PartitionLog(0, replicas, Counters())
        log.append([("old", 1)], 1)
        new_disk = LocalDisk(name="n2")
        log.replace_replica("n0", "n2", new_disk)
        log.append([("new", 2)], 1)
        # History stays on the survivor; the new entry is on both current
        # replicas — replay sees everything even after the swap.
        assert [pairs for _, pairs, _ in log.replay()] == [[("old", 1)], [("new", 2)]]
        assert any(f.startswith("faultlog/") for f in new_disk.list_files())

    def test_cleanup_scoped_to_partition(self):
        replicas = two_replicas()
        log0 = PartitionLog(0, replicas, Counters())
        log1 = PartitionLog(1, replicas, Counters())
        log0.append([("a", 1)], 1)
        log1.append([("b", 2)], 1)
        log0.cleanup()
        assert [pairs for _, pairs, _ in log1.replay()] == [[("b", 2)]]

    def test_needs_a_replica(self):
        with pytest.raises(ValueError):
            PartitionLog(0, [], Counters())


class TestCheckpointStore:
    def test_latest_is_newest(self):
        counters = Counters()
        store = CheckpointStore(0, two_replicas(), counters)
        store.save(3, b"early")
        store.save(7, b"late")
        assert store.latest() == (7, b"late")
        assert counters[C.CHECKPOINTS] == 2
        assert counters[C.CHECKPOINT_BYTES] == 2 * (len(b"early") + len(b"late"))

    def test_empty_store(self):
        assert CheckpointStore(0, two_replicas(), Counters()).latest() is None

    def test_survivor_serves_after_replica_loss(self):
        replicas = two_replicas()
        store = CheckpointStore(0, replicas, Counters())
        store.save(5, b"state")
        replicas[1][1].delete_prefix("")
        assert store.latest() == (5, b"state")

    def test_falls_back_to_older_surviving_checkpoint(self):
        replicas = two_replicas()
        store = CheckpointStore(0, replicas, Counters())
        store.save(3, b"old")
        store.save(7, b"new")
        for _, disk in replicas:
            disk.delete("faultchk/p000/s000007")
        assert store.latest() == (3, b"old")

    def test_replace_replica_and_cleanup(self):
        replicas = two_replicas()
        store = CheckpointStore(0, replicas, Counters())
        store.save(1, b"a")
        new_disk = LocalDisk(name="n2")
        store.replace_replica("n1", "n2", new_disk)
        store.save(2, b"b")
        assert store.latest() == (2, b"b")
        store.cleanup()
        assert store.latest() is None
