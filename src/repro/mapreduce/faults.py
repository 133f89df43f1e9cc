"""Fault injection: the schedule of everything that goes wrong.

The paper leans on MapReduce's fault-tolerance story twice: map output is
written synchronously *because* "a mapper completes after its output has
been persisted for fault tolerance", and the one-pass design explicitly
excludes infinite streams "due to the overhead of fault tolerance".  This
module makes that story executable: a :class:`FaultPlan` schedules task
attempts to fail, whole nodes to crash, shuffle fetches to time out and
nodes to run slow; the engines recover (via
:mod:`repro.mapreduce.recovery`) and the rework shows up in the counters.

Failures are deterministic — tests inject exact attempt counts (or derive
them from a seed) and verify both that answers are unaffected and that the
recovery work is visible in the counters.
"""

from __future__ import annotations

import random
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterable

__all__ = ["TaskFailure", "FaultPlan"]


class TaskFailure(RuntimeError):
    """Raised inside a task attempt that the fault plan kills."""

    def __init__(self, kind: str, task_id: int, attempt: int) -> None:
        super().__init__(f"{kind} task {task_id} failed (attempt {attempt})")
        self.kind = kind
        self.task_id = task_id
        self.attempt = attempt


@dataclass(slots=True)
class FaultPlan:
    """Which task attempts die, which nodes crash, which fetches fail.

    ``map_failures[task_id] = n`` kills the first ``n`` attempts of that
    map task; the (n+1)-th attempt succeeds.  ``reduce_failures`` does the
    same for reduce partitions.  ``max_attempts`` bounds re-execution
    (Hadoop's ``mapred.map.max.attempts``, default 4): a task that would
    exceed it aborts the job.

    ``node_crashes[node] = k`` kills the whole node once ``k`` map tasks
    have completed cluster-wide: its disks are wiped, its HDFS replicas
    are lost, and every completed map task that ran there is re-executed
    on the survivors (Hadoop's TaskTracker-loss semantics).

    ``shuffle_failures[(map_task, partition)] = n`` makes the first ``n``
    fetches of that shuffle segment fail transiently; the fetcher backs
    off exponentially and, past its retry budget, declares the map output
    lost (Hadoop's "too many fetch failures"), triggering map
    re-execution.

    ``slow_nodes[node] = m`` multiplies the node's simulated task duration
    by ``m``; the engines' straggler detector launches speculative backup
    attempts against it (kill-the-loser semantics).

    ``torn_writes[prefix] = n`` truncates the next ``n`` disk writes to
    paths under ``prefix`` (a torn page: only the leading half of the
    bytes lands); ``short_reads[prefix] = n`` cuts the next ``n`` reads
    short the same way.  The engines attach the plan to the node disks
    (:attr:`~repro.io.disk.LocalDisk.fault_injector`), so checkpoint and
    partition-log corruption recovery runs under the same seeded-fault
    contract as every other failure mode.
    """

    map_failures: dict[int, int] = field(default_factory=dict)
    reduce_failures: dict[int, int] = field(default_factory=dict)
    node_crashes: dict[str, int] = field(default_factory=dict)
    shuffle_failures: dict[tuple[int, int], int] = field(default_factory=dict)
    slow_nodes: dict[str, float] = field(default_factory=dict)
    torn_writes: dict[str, int] = field(default_factory=dict)
    short_reads: dict[str, int] = field(default_factory=dict)
    max_attempts: int = 4
    _attempts: dict[int, int] = field(default_factory=lambda: defaultdict(int))
    _reduce_attempts: dict[int, int] = field(default_factory=lambda: defaultdict(int))
    _fetch_faults_left: dict[tuple[int, int], int] = field(default_factory=dict)
    _crashed: set[str] = field(default_factory=set)
    _torn_left: dict[str, int] = field(default_factory=dict)
    _short_left: dict[str, int] = field(default_factory=dict)
    torn_writes_injected: int = 0
    short_reads_injected: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        for task_id, n in self.map_failures.items():
            if n < 0:
                raise ValueError(f"negative failure count for map task {task_id}")
        for partition, n in self.reduce_failures.items():
            if n < 0:
                raise ValueError(
                    f"negative failure count for reduce partition {partition}"
                )
        for node, k in self.node_crashes.items():
            if k < 1:
                raise ValueError(f"node {node!r} must crash after >= 1 map tasks")
        for key, n in self.shuffle_failures.items():
            if n < 0:
                raise ValueError(f"negative fetch-failure count for segment {key}")
        for node, m in self.slow_nodes.items():
            if m < 1.0:
                raise ValueError(f"slowdown for {node!r} must be >= 1.0")
        for faults in (self.torn_writes, self.short_reads):
            for prefix, n in faults.items():
                if n < 0:
                    raise ValueError(f"negative disk-fault count for {prefix!r}")
        self._fetch_faults_left = dict(self.shuffle_failures)
        self._torn_left = dict(self.torn_writes)
        self._short_left = dict(self.short_reads)

    def check_targets(
        self, engine: str, nodes: list[str], num_map_tasks: int, num_reducers: int
    ) -> None:
        """Refuse a plan aimed at a node, map task or partition the job lacks.

        Called by the driver before any work, so a typo in a plan is a
        ``ValueError`` naming the entry rather than a fault that silently
        never fires (or a crash that surfaces mid-job).
        """

        def refuse(entry: str, valid: str) -> None:
            raise ValueError(f"{engine}: fault plan entry {entry} is out of range: {valid}")

        for name in ("node_crashes", "slow_nodes"):
            for node in getattr(self, name):
                if node not in nodes:
                    refuse(f"{name}[{node!r}]", f"compute nodes are {nodes}")
        tasks = f"map tasks are 0..{num_map_tasks - 1}"
        partitions = f"reduce partitions are 0..{num_reducers - 1}"
        for task_id in self.map_failures:
            if not 0 <= task_id < num_map_tasks:
                refuse(f"map_failures[{task_id}]", tasks)
        for partition in self.reduce_failures:
            if not 0 <= partition < num_reducers:
                refuse(f"reduce_failures[{partition}]", partitions)
        for task_id, partition in self.shuffle_failures:
            if not (0 <= task_id < num_map_tasks and 0 <= partition < num_reducers):
                refuse(f"shuffle_failures[{(task_id, partition)}]", f"{tasks}, {partitions}")

    # -- map / reduce attempts --------------------------------------------

    def start_map_attempt(self, task_id: int) -> int:
        """Register an attempt; raise :class:`TaskFailure` if it must die.

        Returns the attempt number (1-based) on success.
        """
        self._attempts[task_id] += 1
        attempt = self._attempts[task_id]
        if attempt > self.max_attempts:
            raise RuntimeError(
                f"map task {task_id} exceeded max_attempts={self.max_attempts}"
            )
        if attempt <= self.map_failures.get(task_id, 0):
            raise TaskFailure("map", task_id, attempt)
        return attempt

    def start_reduce_attempt(self, partition: int) -> int:
        """Register a reduce attempt; raise :class:`TaskFailure` if it dies."""
        self._reduce_attempts[partition] += 1
        attempt = self._reduce_attempts[partition]
        if attempt > self.max_attempts:
            raise RuntimeError(
                f"reduce task {partition} exceeded max_attempts={self.max_attempts}"
            )
        if attempt <= self.reduce_failures.get(partition, 0):
            raise TaskFailure("reduce", partition, attempt)
        return attempt

    def attempts_of(self, task_id: int) -> int:
        # .get, not indexing: reading an unknown task through the
        # defaultdict would insert a spurious zero entry.
        return self._attempts.get(task_id, 0)

    def reduce_attempts_of(self, partition: int) -> int:
        return self._reduce_attempts.get(partition, 0)

    # -- node crashes ---------------------------------------------------------

    def crashes_due(self, completed_maps: int) -> list[str]:
        """Nodes whose crash trigger has been reached (each fires once)."""
        due = [
            node
            for node, after in sorted(self.node_crashes.items())
            if after <= completed_maps and node not in self._crashed
        ]
        self._crashed.update(due)
        return due

    def is_crashed(self, node: str) -> bool:
        return node in self._crashed

    # -- shuffle fetch faults ---------------------------------------------------

    def take_fetch_fault(self, map_task: int, partition: int) -> bool:
        """Consume one injected transient failure for this segment, if any."""
        key = (map_task, partition)
        left = self._fetch_faults_left.get(key, 0)
        if left <= 0:
            return False
        self._fetch_faults_left[key] = left - 1
        return True

    # -- disk faults (LocalDisk injection hooks) ----------------------------

    @property
    def has_disk_faults(self) -> bool:
        return bool(self.torn_writes or self.short_reads)

    def _take(self, budget: dict[str, int], path: str) -> bool:
        for prefix in sorted(budget):
            if path.startswith(prefix) and budget[prefix] > 0:
                budget[prefix] -= 1
                return True
        return False

    def filter_write(self, path: str, data: bytes) -> bytes:
        """Tear the write if a fault is scheduled: only a prefix lands."""
        if len(data) > 1 and self._take(self._torn_left, path):
            self.torn_writes_injected += 1
            return data[: len(data) // 2]
        return data

    def filter_read(self, path: str, data: bytes) -> bytes:
        """Cut the read short if a fault is scheduled."""
        if len(data) > 1 and self._take(self._short_left, path):
            self.short_reads_injected += 1
            return data[: len(data) // 2]
        return data

    # -- speculation ---------------------------------------------------------

    def slowdown(self, node: str) -> float:
        """Simulated-duration multiplier for ``node`` (1.0 = full speed)."""
        return self.slow_nodes.get(node, 1.0)

    # -- summaries ------------------------------------------------------------

    @property
    def total_failures_injected(self) -> int:
        return sum(self.map_failures.values())

    # -- construction ----------------------------------------------------------

    @classmethod
    def random(
        cls,
        seed: int,
        *,
        num_map_tasks: int,
        num_reducers: int = 0,
        nodes: Iterable[str] = (),
        map_failure_rate: float = 0.25,
        reduce_failure_rate: float = 0.25,
        shuffle_failure_rate: float = 0.0,
        torn_write_rate: float = 0.0,
        short_read_rate: float = 0.0,
        crash_after: int | None = None,
        max_attempts: int = 6,
    ) -> "FaultPlan":
        """A deterministic, seed-derived plan for randomized testing.

        The same seed and shape always yield the same plan, so each engine
        under test can be handed its own (stateful) instance.  At most one
        node crash is scheduled (``crash_after`` map completions, on a
        seed-chosen node) so that small test clusters keep a quorum.

        ``torn_write_rate`` / ``short_read_rate`` schedule one or two disk
        faults against the recovery layers' replicated files (checkpoint
        and partition-log paths), which is where corrupted bytes must be
        detected and survived rather than silently returned.
        """
        rng = random.Random(seed)
        map_failures = {
            t: rng.randint(1, 2)
            for t in range(num_map_tasks)
            if rng.random() < map_failure_rate
        }
        reduce_failures = {
            p: rng.randint(1, 2)
            for p in range(num_reducers)
            if rng.random() < reduce_failure_rate
        }
        shuffle_failures = {
            (t, p): rng.randint(1, 2)
            for t in range(num_map_tasks)
            for p in range(num_reducers)
            if rng.random() < shuffle_failure_rate
        }
        node_crashes: dict[str, int] = {}
        node_list = sorted(nodes)
        if crash_after is not None and node_list:
            node_crashes[rng.choice(node_list)] = crash_after
        torn_writes: dict[str, int] = {}
        if rng.random() < torn_write_rate:
            torn_writes["faultchk/"] = rng.randint(1, 2)
        short_reads: dict[str, int] = {}
        if rng.random() < short_read_rate:
            short_reads["faultlog/"] = rng.randint(1, 2)
        return cls(
            map_failures=map_failures,
            reduce_failures=reduce_failures,
            node_crashes=node_crashes,
            shuffle_failures=shuffle_failures,
            torn_writes=torn_writes,
            short_reads=short_reads,
            max_attempts=max_attempts,
        )
