"""Recovery coordination shared by all three engines.

The JobTracker-side half of fault tolerance: attempt bookkeeping (which
task attempt is allowed to fail, where retries land), output lineage
(which node holds which completed task's output — the metadata that decides
what a node crash destroys), straggler detection for speculative
execution, and the replicated logs that make push-based engines
recoverable at all.

Two persistence primitives back the push engines (HOP and one-pass),
whose reducers receive map output that is never kept at the mappers:

* :class:`PartitionLog` — a replicated, disk-accounted append log of
  every chunk delivered to a reduce partition.  Reduce recovery replays
  it; this is the "map output persisted for fault tolerance" of §II,
  relocated to where a push architecture can actually use it.
* :class:`CheckpointStore` — replicated snapshots of the incremental-hash
  reduce state, so one-pass recovery replays only the post-checkpoint
  suffix of the log instead of the whole input (the overhead the paper's
  §I weighs against infinite streams).

All durations used by speculation are *simulated* (bytes / rate x
slow-node multiplier), so recovery decisions — and therefore results and
counters — are deterministic for a given fault plan.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from repro.io.disk import LocalDisk
from repro.io.runio import run_chunks, stream_run, write_chunks
from repro.mapreduce.counters import C, Counters
from repro.mapreduce.faults import FaultPlan, TaskFailure
from repro.obs.log import get_logger
from repro.obs.tracer import NULL_TRACER

_log = get_logger("recovery")

__all__ = [
    "FetchRetryPolicy",
    "SpeculationPolicy",
    "StragglerDetector",
    "TaskLineage",
    "RecoveryManager",
    "PartitionLog",
    "CheckpointStore",
]


@dataclass(frozen=True, slots=True)
class FetchRetryPolicy:
    """Capped exponential backoff for transient shuffle fetch failures.

    Mirrors Hadoop's fetch retry: back off ``base * 2^(attempt-1)`` up to
    ``max_backoff_ms``; after ``max_retries`` consecutive failures the
    segment's map output is declared lost and the map task re-executes.
    Backoff time is simulated (accumulated in a counter, never slept).
    """

    max_retries: int = 4
    base_backoff_ms: float = 100.0
    max_backoff_ms: float = 3200.0

    def __post_init__(self) -> None:
        if self.max_retries < 1:
            raise ValueError("max_retries must be >= 1")
        if self.base_backoff_ms <= 0 or self.max_backoff_ms < self.base_backoff_ms:
            raise ValueError("backoff bounds must satisfy 0 < base <= max")

    def backoff_ms(self, attempt: int) -> float:
        """Delay before retry number ``attempt`` (1-based)."""
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        return min(self.base_backoff_ms * 2 ** (attempt - 1), self.max_backoff_ms)


@dataclass(frozen=True, slots=True)
class SpeculationPolicy:
    """When to launch a backup attempt for a suspected straggler."""

    #: Launch a backup when a task's estimated duration exceeds this
    #: multiple of the mean completed-task duration.
    slowdown_threshold: float = 1.5
    #: Progress estimates need a baseline; don't speculate before this
    #: many tasks have completed.
    min_completed: int = 2
    #: Simulated processing rate used to turn input bytes into durations.
    base_rate_bytes_per_ms: float = 64 * 1024.0

    def __post_init__(self) -> None:
        if self.slowdown_threshold <= 1.0:
            raise ValueError("slowdown_threshold must be > 1.0")
        if self.min_completed < 1:
            raise ValueError("min_completed must be >= 1")
        if self.base_rate_bytes_per_ms <= 0:
            raise ValueError("base_rate_bytes_per_ms must be positive")


class StragglerDetector:
    """Rolling mean of completed-task durations; flags outliers."""

    def __init__(self, policy: SpeculationPolicy) -> None:
        self.policy = policy
        self._total_ms = 0.0
        self._completed = 0

    def record(self, duration_ms: float) -> None:
        self._total_ms += duration_ms
        self._completed += 1

    @property
    def completed(self) -> int:
        return self._completed

    @property
    def mean_ms(self) -> float:
        return self._total_ms / self._completed if self._completed else 0.0

    def is_straggler(self, estimate_ms: float) -> bool:
        """Would this task run long enough to justify a backup attempt?"""
        if self._completed < self.policy.min_completed:
            return False
        return estimate_ms > self.policy.slowdown_threshold * self.mean_ms


class TaskLineage:
    """Which node holds which completed map task's output, and how much.

    This is the JobTracker's view: when a node is lost, ``tasks_on`` names
    exactly the completed work that died with it.
    """

    def __init__(self) -> None:
        self._node: dict[int, str] = {}
        self._bytes: dict[int, int] = {}

    def record(self, task_id: int, node: str, nbytes: int) -> None:
        self._node[task_id] = node
        self._bytes[task_id] = nbytes

    def node_of(self, task_id: int) -> str | None:
        return self._node.get(task_id)

    def bytes_of(self, task_id: int) -> int:
        return self._bytes.get(task_id, 0)

    def tasks_on(self, node: str) -> list[int]:
        return sorted(t for t, n in self._node.items() if n == node)

    def forget(self, task_id: int) -> None:
        self._node.pop(task_id, None)
        self._bytes.pop(task_id, None)

    def __len__(self) -> int:
        return len(self._node)


AttemptFn = Callable[[str], Any]
DiscardFn = Callable[[str, Any], None]


class RecoveryManager:
    """Shared attempt loops: map retries + speculation, reduce retries.

    The driver routes every task of every engine — with or without a
    fault plan — through these loops, so attempt semantics (who is
    charged, where retries land, when the job aborts) cannot drift
    between engines or between clean and faulty runs; the plan is data
    the loops consult.  ``attempt_fn(node)`` runs one attempt and returns
    its result with the work already charged to the job — recovery costs
    real resources; ``discard_fn(node, result)`` cleans up a dead or
    losing attempt.
    """

    def __init__(
        self,
        fault_plan: FaultPlan | None,
        counters: Counters,
        *,
        speculation: SpeculationPolicy | None = None,
        tracer: Any = NULL_TRACER,
    ) -> None:
        self.fault_plan = fault_plan
        self.counters = counters
        self.speculation = speculation or SpeculationPolicy()
        self._detector = StragglerDetector(self.speculation)
        self.tracer = tracer

    # -- map side ------------------------------------------------------------

    def simulated_task_ms(self, input_bytes: int, node: str) -> float:
        """Deterministic duration model: bytes / rate x node slowdown."""
        base = input_bytes / self.speculation.base_rate_bytes_per_ms
        slowdown = self.fault_plan.slowdown(node) if self.fault_plan else 1.0
        return base * slowdown

    def map_candidates(self, task_id: int, preferred_node: str, live_nodes: list[str]) -> list[str]:
        """Nodes a map task's attempts land on, in order: preferred first."""
        candidates = [n for n in (preferred_node,) if n in live_nodes]
        candidates += [n for n in live_nodes if n != preferred_node]
        if not candidates:
            raise RuntimeError(f"map task {task_id}: no live nodes to run on")
        return candidates

    def run_map_task(
        self,
        task_id: int,
        candidates: list[str],
        input_bytes: int,
        first: Any,
        attempt_fn: AttemptFn,
        discard_fn: DiscardFn,
    ) -> tuple[str, Any]:
        """Run one map task to success; returns ``(winning node, result)``.

        ``first`` is the result of the attempt the driver's wave already
        ran on ``candidates[0]`` (see :meth:`map_candidates`), charged
        like any other.  A killed attempt's work is charged before its
        output is discarded and the task is retried on the next live
        candidate, as Hadoop's JobTracker does.  With slow nodes in the
        plan, a successful but straggling attempt races a speculative
        backup (first finisher wins, the loser's work is counted as waste).
        """
        plan = self.fault_plan
        attempts = plan.max_attempts if plan is not None else 1
        for attempt_idx in range(attempts):
            node = candidates[attempt_idx % len(candidates)]
            dies = False
            if plan is not None:
                try:
                    plan.start_map_attempt(task_id)
                except TaskFailure:
                    dies = True
            result = attempt_fn(node) if attempt_idx else first
            if dies:
                # The attempt died before its completion report: its output
                # is gone, but the work it burned stays on the books.
                discard_fn(node, result)
                self.counters.inc(C.MAP_TASK_RETRIES)
                self.tracer.event(
                    "task.killed",
                    "recovery",
                    node=node,
                    task=f"map:{task_id:05d}",
                    attempt=attempt_idx,
                )
                _log.warn("map.task.killed", task=task_id, node=node, attempt=attempt_idx)
                continue
            return self._maybe_speculate(
                task_id, node, candidates, input_bytes, attempt_fn, discard_fn, result
            )
        raise RuntimeError(f"map task {task_id} exhausted {attempts} attempts")

    def _maybe_speculate(
        self,
        task_id: int,
        node: str,
        live_nodes: list[str],
        input_bytes: int,
        attempt_fn: AttemptFn,
        discard_fn: DiscardFn,
        result: Any,
    ) -> tuple[str, Any]:
        plan = self.fault_plan
        if plan is None or not plan.slow_nodes:
            return node, result
        task = f"map:{task_id:05d}"
        duration = self.simulated_task_ms(input_bytes, node)
        backup_node = self._fastest_backup(node, live_nodes)
        if (
            backup_node is not None
            and self._detector.is_straggler(duration)
            and plan.slowdown(backup_node) < plan.slowdown(node)
        ):
            self.counters.inc(C.SPECULATIVE_LAUNCHED)
            self.tracer.event(
                "speculative.launched",
                "recovery",
                node=backup_node,
                task=task,
                straggler=node,
            )
            _log.info(
                "speculative.launched", task=task_id, backup=backup_node, straggler=node
            )
            backup_result = attempt_fn(backup_node)
            backup_ms = self.simulated_task_ms(input_bytes, backup_node)
            # The backup cannot start until the straggler is *detected*,
            # which takes roughly one mean task duration — so it races the
            # original's remaining time, not its full duration.  A mild
            # straggler (slowdown just past the threshold) therefore loses.
            if self._detector.mean_ms + backup_ms < duration:
                # Backup finishes first: kill the original (the loser).
                discard_fn(node, result)
                self.counters.inc(C.SPECULATIVE_WINS)
                self.counters.inc(C.SPECULATIVE_WASTED_MS, duration)
                self.tracer.event(
                    "speculative.win", "recovery", node=backup_node, task=task
                )
                node, result, duration = backup_node, backup_result, backup_ms
            else:
                discard_fn(backup_node, backup_result)
                self.counters.inc(C.SPECULATIVE_WASTED_MS, backup_ms)
                self.tracer.event(
                    "speculative.lost", "recovery", node=backup_node, task=task
                )
        self._detector.record(duration)
        return node, result

    def _fastest_backup(self, node: str, live_nodes: list[str]) -> str | None:
        assert self.fault_plan is not None
        others = [n for n in live_nodes if n != node]
        if not others:
            return None
        return min(others, key=lambda n: (self.fault_plan.slowdown(n), n))

    # -- reduce side -------------------------------------------------------------

    def run_reduce_task(
        self, partition: int, attempt_fn: Callable[[int], Any]
    ) -> Any:
        """Run one reduce task to success.

        ``attempt_fn(attempt_idx)`` executes one attempt — for retries
        (``attempt_idx > 0``) the engine rebuilds the task's input by
        re-fetching map output or replaying its delivery log.
        """
        plan = self.fault_plan
        attempts = plan.max_attempts if plan is not None else 1
        for attempt_idx in range(attempts):
            dies = False
            if plan is not None:
                try:
                    plan.start_reduce_attempt(partition)
                except TaskFailure:
                    dies = True
            result = attempt_fn(attempt_idx)
            if dies:
                self.counters.inc(C.REDUCE_TASK_RETRIES)
                self.tracer.event(
                    "task.killed",
                    "recovery",
                    task=f"reduce:{partition:03d}",
                    attempt=attempt_idx,
                )
                _log.warn("reduce.task.killed", partition=partition, attempt=attempt_idx)
                continue
            return result
        raise RuntimeError(f"reduce task {partition} exhausted {attempts} attempts")


@dataclass(frozen=True, slots=True)
class _LogEntry:
    seq: int
    path: str
    nbytes: int
    records: int


class PartitionLog:
    """Replicated append log of chunks delivered to one reduce partition.

    Every chunk a mapper pushes is also written (via real, accounted disk
    I/O) to ``replication`` node disks before delivery counts as durable —
    the push-engine analogue of Hadoop's synchronous map-output write.
    ``replay`` streams entries back from the first surviving replica, so
    recovery tolerates losing ``replication - 1`` of the log's nodes.
    """

    def __init__(
        self,
        partition: int,
        replicas: list[tuple[str, LocalDisk]],
        counters: Counters,
    ) -> None:
        if not replicas:
            raise ValueError("PartitionLog needs at least one replica disk")
        self.partition = partition
        self.replicas = list(replicas)
        self.counters = counters
        self._entries: list[_LogEntry] = []

    def append(self, pairs: list[tuple[Any, Any]], nbytes: int) -> int:
        """Durably log one delivered chunk; returns its sequence number."""
        seq = len(self._entries) + 1
        path = f"faultlog/p{self.partition:03d}/c{seq:06d}"
        chunks = list(run_chunks(pairs))  # encoded once, written to every replica
        written = 0
        for _node, disk in self.replicas:
            written = write_chunks(disk, path, chunks)
            self.counters.inc(C.LOG_BYTES, written)
        self._entries.append(_LogEntry(seq, path, written, len(pairs)))
        return seq

    @property
    def last_seq(self) -> int:
        return len(self._entries)

    @property
    def total_bytes(self) -> int:
        return sum(e.nbytes for e in self._entries)

    def replay(
        self, after_seq: int = 0
    ) -> Iterator[tuple[int, list[tuple[Any, Any]], int]]:
        """Stream logged chunks with ``seq > after_seq`` from a survivor."""
        for entry in self._entries:
            if entry.seq <= after_seq:
                continue
            yield entry.seq, self._read_entry(entry), entry.nbytes

    def _read_entry(self, entry: _LogEntry) -> list[tuple[Any, Any]]:
        """Read one logged chunk, skipping lost *and corrupt* replicas.

        A torn write leaves a truncated trailing frame; ``stream_run``
        raises for it, and a replica whose record count disagrees with
        the log's own bookkeeping is equally untrustworthy.  A short read
        looks the same but is transient, so a replica is read twice
        before it is rejected.  Either way the next replica is tried;
        only when none is intact does the entry count as lost.
        """
        for _node, disk in self.replicas:
            if not disk.exists(entry.path):
                continue
            try:
                pairs = _read_replica(disk, entry)
            except ValueError:
                self.counters.inc(C.LOG_REPLICAS_REJECTED)
                continue
            if len(pairs) != entry.records:
                self.counters.inc(C.LOG_REPLICAS_REJECTED)
                continue
            return pairs
        raise FileNotFoundError(
            f"all {len(self.replicas)} replicas of log entry {entry.path} "
            f"are gone or corrupt"
        )

    def replace_replica(self, node: str, new_node: str, new_disk: LocalDisk) -> None:
        """Swap a dead replica holder for a live one.

        Only future appends land on the new disk; history is served by the
        surviving replica — so the log tolerates one crash per entry, like
        2-way replicated HDFS.
        """
        self.replicas = [
            (new_node, new_disk) if n == node else (n, d) for n, d in self.replicas
        ]

    def cleanup(self) -> None:
        for _node, disk in self.replicas:
            disk.delete_prefix(f"faultlog/p{self.partition:03d}/")


def _read_replica(disk: LocalDisk, entry: _LogEntry) -> list[tuple[Any, Any]]:
    """One replica's pairs, read again once if the first read's framing
    or record count is off: the second read stands."""
    try:
        pairs = list(stream_run(disk, entry.path))
        if len(pairs) == entry.records:
            return pairs
    except ValueError:
        pass
    return list(stream_run(disk, entry.path))


class CheckpointStore:
    """Replicated snapshots of one partition's incremental reduce state.

    Each checkpoint is tagged with the delivery-log sequence number it
    covers; recovery restores the newest surviving checkpoint and replays
    only the log suffix past it.
    """

    def __init__(
        self,
        partition: int,
        replicas: list[tuple[str, LocalDisk]],
        counters: Counters,
    ) -> None:
        if not replicas:
            raise ValueError("CheckpointStore needs at least one replica disk")
        self.partition = partition
        self.replicas = list(replicas)
        self.counters = counters
        self._saved: list[tuple[int, str]] = []

    #: 4-byte CRC32 header guarding each checkpoint payload against torn
    #: writes and bit rot; a replica that fails the check is rejected and
    #: recovery falls back to another replica or an older checkpoint.
    _CRC = struct.Struct("<I")

    def save(self, seq: int, payload: bytes) -> None:
        """Persist a state snapshot covering log entries ``<= seq``."""
        path = f"faultchk/p{self.partition:03d}/s{seq:06d}"
        framed = self._CRC.pack(zlib.crc32(payload)) + payload
        for _node, disk in self.replicas:
            disk.write(path, framed, overwrite=True)
            self.counters.inc(C.CHECKPOINT_BYTES, len(payload))
        self._saved.append((seq, path))
        self.counters.inc(C.CHECKPOINTS)

    def latest(self) -> tuple[int, bytes] | None:
        """Newest surviving *intact* checkpoint as ``(seq, payload)``.

        Replicas failing the CRC check are rejected; if every replica of
        the newest checkpoint is corrupt, the next-older one is tried.
        """
        for seq, path in reversed(self._saved):
            for _node, disk in self.replicas:
                if not disk.exists(path):
                    continue
                framed = disk.read(path)
                if len(framed) < self._CRC.size:
                    self.counters.inc(C.CHECKPOINT_REJECTED)
                    continue
                (crc,) = self._CRC.unpack_from(framed)
                payload = framed[self._CRC.size :]
                if zlib.crc32(payload) != crc:
                    self.counters.inc(C.CHECKPOINT_REJECTED)
                    continue
                return seq, payload
        return None

    def replace_replica(self, node: str, new_node: str, new_disk: LocalDisk) -> None:
        """Swap a dead replica holder for a live one (future saves only)."""
        self.replicas = [
            (new_node, new_disk) if n == node else (n, d) for n, d in self.replicas
        ]

    def cleanup(self) -> None:
        for _node, disk in self.replicas:
            disk.delete_prefix(f"faultchk/p{self.partition:03d}/")
