"""The one-pass analytics engine — the platform sketched in §V of the paper.

The engine keeps the MapReduce programming model but replaces every
sort-merge component with hash-based ones:

* map side: scan-only partitioning, or in-memory hash aggregation when the
  job has a combiner algebra (an :class:`~repro.core.aggregates.Aggregator`);
* shuffle: push-based — mappers deliver chunks to reducers as they are
  produced (Table III's "Push / Pull" row);
* reduce side, by :attr:`OnePassConfig.mode`:

  - ``"hybrid"``       — hybrid hash grouping (blocking; baseline),
  - ``"incremental"``  — per-key states updated on arrival, early emission,
  - ``"hotset"``       — incremental + Space-Saving hot-key cache when
    memory is smaller than the total state size.

Jobs with no aggregator (holistic reduces such as sessionization) run the
grouping path: hybrid hash collects each key's values without ever sorting,
then the reduce function is applied per group.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator

from repro.core.aggregates import COLLECT, Aggregator
from repro.core.hotset import ApproximateResult, HotSetIncrementalHash
from repro.core.hybrid_hash import HybridHashGrouper
from repro.core.incremental import EmitPolicy, IncrementalHash
from repro.core.partitioner import MapSideHashCombiner, ScanPartitionBuffer
from repro.exec import resolve_executor
from repro.hdfs.filesystem import InputSplit
from repro.io.disk import LocalDisk
from repro.mapreduce.api import ReduceFn
from repro.mapreduce.counters import C, Counters
from repro.mapreduce.faults import FaultPlan
from repro.mapreduce.journal import (
    K_CHECKPOINT,
    K_JOB_SPEC,
    K_MAP_COMMIT,
    K_OUTPUT_COMMIT,
    K_REDUCE_COMMIT,
    K_SHUFFLE_COMMIT,
    K_TASK_GRANT,
    NULL_JOURNAL,
    emit_committed_output,
    job_fingerprint,
    output_digest,
)
from repro.mapreduce.recovery import (
    CheckpointStore,
    PartitionLog,
    RecoveryManager,
    SpeculationPolicy,
)
from repro.mapreduce.runtime import JobResult, LocalCluster
from repro.mapreduce.scheduler import WaveScheduler
from repro.mapreduce.sortmerge import map_slices
from repro.obs.log import get_logger
from repro.obs.tracer import NULL_TRACER, byte_cost

__all__ = [
    "OnePassConfig",
    "OnePassJob",
    "OnePassReduceTask",
    "OnePassEngine",
    "execute_onepass_map",
]

FinalizeFn = Callable[[Any, Any], Iterable[Any]]

_MODES = ("hybrid", "incremental", "hotset")


@dataclass(slots=True)
class OnePassConfig:
    """Tuning knobs of the one-pass engine."""

    num_reducers: int = 2
    map_buffer_bytes: int = 2 * 1024 * 1024
    map_memory_bytes: int = 8 * 1024 * 1024
    reduce_memory_bytes: int = 64 * 1024 * 1024
    mode: str = "incremental"
    hotset_capacity: int = 1024
    spill_partitions: int = 8
    map_side_combine: bool = True
    #: Batch kernel path: pushed chunks are folded reduce-side through the
    #: hoisted ``add_batch``/``update_batch`` loops (the map side collects
    #: block-at-a-time either way; see docs/PERFORMANCE.md).  Byte-identical
    #: output; CPU cost only.
    batch: bool = False

    def __post_init__(self) -> None:
        if self.num_reducers < 1:
            raise ValueError("num_reducers must be >= 1")
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if self.hotset_capacity < 1:
            raise ValueError("hotset_capacity must be >= 1")
        for name in ("map_buffer_bytes", "map_memory_bytes", "reduce_memory_bytes"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


@dataclass(slots=True)
class OnePassJob:
    """A job for the one-pass engine.

    Exactly one of two shapes:

    * **aggregate job** — ``aggregator`` set: the reduce is the aggregate's
      algebra; ``finalize(key, result)`` (default: yield ``(key, result)``)
      shapes output records.  Supports incremental/hotset modes and early
      emission via ``emit_policy``.
    * **grouping job** — ``reduce_fn`` set: each key's collected values are
      passed to the reduce function, as in classic MapReduce.  Runs on the
      (blocking) hybrid-hash path; no sorting anywhere.
    """

    name: str
    map_fn: Callable[[Any], Iterable[tuple[Any, Any]]]
    aggregator: Aggregator | None = None
    reduce_fn: ReduceFn | None = None
    finalize: FinalizeFn | None = None
    emit_policy: EmitPolicy | None = None
    config: OnePassConfig = field(default_factory=OnePassConfig)
    input_path: str = ""
    output_path: str = ""

    def __post_init__(self) -> None:
        if (self.aggregator is None) == (self.reduce_fn is None):
            raise ValueError("set exactly one of aggregator / reduce_fn")
        if self.reduce_fn is not None and self.config.mode != "hybrid":
            # Holistic jobs cannot run incrementally; fall back silently is
            # worse than being explicit.
            raise ValueError(
                "grouping jobs (reduce_fn) require mode='hybrid'; "
                f"got mode={self.config.mode!r}"
            )
        if self.emit_policy is not None and self.aggregator is None:
            raise ValueError("emit_policy requires an aggregator")

    @property
    def is_aggregate(self) -> bool:
        return self.aggregator is not None


class OnePassReduceTask:
    """One reduce partition's hash backend, fed by pushed chunks."""

    def __init__(
        self,
        job: OnePassJob,
        partition: int,
        node: str,
        disk: LocalDisk,
        *,
        tracer: Any = NULL_TRACER,
    ) -> None:
        self.job = job
        self.partition = partition
        self.node = node
        self.disk = disk
        self.counters = Counters()
        self.tracer = tracer
        self._task = f"reduce:{partition:03d}"
        #: Chunks 1..restored_through are already covered by a restored
        #: journal checkpoint; :meth:`accept` drops them on re-delivery.
        self.restored_through = 0
        self._chunks_seen = 0
        cfg = job.config
        namespace = f"onepass/{partition:03d}"
        self._incremental: IncrementalHash | None = None
        self._hotset: HotSetIncrementalHash | None = None
        self._grouper: HybridHashGrouper | None = None
        if job.is_aggregate and cfg.mode == "incremental":
            self._incremental = IncrementalHash(
                job.aggregator,
                memory_bytes=cfg.reduce_memory_bytes,
                disk=disk,
                namespace=namespace,
                emit_policy=job.emit_policy,
                counters=self.counters,
            )
        elif job.is_aggregate and cfg.mode == "hotset":
            self._hotset = HotSetIncrementalHash(
                job.aggregator,
                disk,
                namespace,
                capacity=cfg.hotset_capacity,
                spill_partitions=cfg.spill_partitions,
                counters=self.counters,
            )
        else:
            self._grouper = HybridHashGrouper(
                disk,
                namespace,
                cfg.reduce_memory_bytes,
                aggregator=job.aggregator or COLLECT,
                spill_partitions=cfg.spill_partitions,
                counters=self.counters,
            )

    # -- ingestion (push target) ----------------------------------------------

    def accept(self, pairs: list[tuple[Any, Any]], nbytes: int) -> bool:
        """Absorb one pushed chunk; False when a restored checkpoint covers it."""
        self._chunks_seen += 1
        if self._chunks_seen <= self.restored_through:
            return False
        counters = self.counters
        counters.inc(C.SHUFFLE_BYTES, nbytes)
        counters.inc(C.REDUCE_INPUT_RECORDS, len(pairs))
        trc = self.tracer
        backend = self._incremental or self._hotset or self._grouper
        spill0 = backend.spilled_records if trc.enabled else 0
        perf = time.perf_counter
        t0 = perf()
        batch = self.job.config.batch
        if self._incremental is not None:
            if batch:
                self._incremental.update_batch(pairs)
            else:
                update = self._incremental.update
                for key, value in pairs:
                    update(key, value)
        elif self._hotset is not None:
            # Tuple fallback: hot-set cache admission/eviction decisions are
            # inherently per-pair, so there is no batch variant to take.
            update = self._hotset.update
            for key, value in pairs:
                update(key, value)
        else:
            assert self._grouper is not None
            if batch:
                self._grouper.add_batch(pairs)
            else:
                add = self._grouper.add
                for key, value in pairs:
                    add(key, value)
        counters.inc(C.T_HASH, perf() - t0)
        if trc.enabled:
            # Spill bytes settle only when writers close, so the live
            # observable is the backends' spilled-pair count.
            spilled = backend.spilled_records - spill0
            if spilled > 0:
                # The hash backend spilled pairs to disk while absorbing
                # this chunk — surface it as a spill span so hash-table
                # spills line up with sort-merge ones.
                c0 = trc.clock
                trc.event(
                    "hash.spill", "spill", node=self.node, task=self._task
                )
                trc.add_span(
                    "spill",
                    "spill",
                    c0,
                    c0 + spilled,
                    node=self.node,
                    task=self._task,
                    records=spilled,
                )
        return True

    # -- early answers -----------------------------------------------------------

    @property
    def early_emitted(self) -> list[tuple[Any, Any]]:
        if self._incremental is not None:
            return self._incremental.early_emitted
        return []

    def approximate_results(self) -> list[ApproximateResult]:
        if self._hotset is not None:
            return list(self._hotset.approximate_results())
        return []

    # -- finish ---------------------------------------------------------------------

    def finish(self) -> list[Any]:
        """Drain the backend and produce this partition's output records."""
        counters = self.counters
        counters.inc(C.REDUCE_TASKS)
        job = self.job
        output: list[Any] = []
        groups = 0
        backend = self._incremental or self._hotset
        if backend is not None:
            self.tracer.metrics.gauge("hash.resident.keys").record(
                self.tracer.clock, backend.resident_keys
            )
        with self.tracer.span(
            "reduce", "reduce", node=self.node, task=self._task
        ) as reduce_span:
            if job.is_aggregate:
                finalize = job.finalize or _default_finalize
                for key, result in self._aggregate_results():
                    groups += 1
                    output.extend(finalize(key, result))
            else:
                assert self._grouper is not None and job.reduce_fn is not None
                perf = time.perf_counter
                t_reduce = 0.0
                for key, values in self._grouper.finish():
                    groups += 1
                    t0 = perf()
                    output.extend(job.reduce_fn(key, iter(values)))
                    t_reduce += perf() - t0
                counters.inc(C.T_REDUCE_FN, t_reduce)
            reduce_span.set_cost(max(1, groups))
            reduce_span.set(groups=groups, out_records=len(output))
        counters.inc(C.REDUCE_INPUT_GROUPS, groups)
        counters.inc(C.REDUCE_OUTPUT_RECORDS, len(output))
        return output

    def _aggregate_results(self) -> Iterator[tuple[Any, Any]]:
        if self._incremental is not None:
            return self._incremental.results()
        if self._hotset is not None:
            return self._hotset.results()
        assert self._grouper is not None
        return self._grouper.finish()

    # -- checkpointing --------------------------------------------------------------

    def checkpoint_payload(self) -> bytes | None:
        """Snapshot the reduce state, if this backend supports it.

        Only the incremental-hash backend is checkpointable (its state is
        one in-memory table); hotset and hybrid-hash backends return
        ``None`` and recover by full log replay instead.
        """
        if self._incremental is None:
            return None
        return self._incremental.checkpoint_payload()

    def restore_payload(self, payload: bytes) -> None:
        """Load a checkpoint produced by :meth:`checkpoint_payload`."""
        assert self._incremental is not None
        self._incremental.restore_payload(payload)


def _default_finalize(key: Any, result: Any) -> Iterable[Any]:
    yield (key, result)


def execute_onepass_map(
    job: OnePassJob,
    codec: Any,
    data: bytes,
    sink: Callable[[int, list[tuple[Any, Any]], int], None],
    *,
    tracer: Any = NULL_TRACER,
    task_id: int = 0,
    node: str = "",
) -> Counters:
    """One map task's pure body: decode, map, partition/combine into ``sink``.

    This is the worker-side half of the one-pass map task (the
    ``onepass_map`` kernel): no disk or HDFS access, no engine state — its
    only effect is the ordered stream of chunks pushed through ``sink``.
    Returns the task's counters for the coordinator to merge.
    """
    cfg = job.config
    task_counters = Counters()
    task_counters.inc(C.MAP_TASKS)
    task_counters.inc(C.MAP_INPUT_BYTES, len(data))

    if job.is_aggregate and cfg.map_side_combine:
        buffer: Any = MapSideHashCombiner(
            cfg.num_reducers,
            job.aggregator,
            sink,
            memory_bytes=cfg.map_memory_bytes,
            counters=task_counters,
        )
    else:
        buffer = ScanPartitionBuffer(
            cfg.num_reducers,
            sink,
            buffer_bytes=cfg.map_buffer_bytes,
            counters=task_counters,
        )

    perf = time.perf_counter
    t_hash = 0.0
    n_in = 0
    with tracer.span(
        "map", "map", node=node, task=f"map:{task_id:05d}"
    ) as map_span:
        for pairs, ends in map_slices(codec.decode(data), job.map_fn, task_counters):
            n_in += len(ends)
            t0 = perf()
            buffer.add_block(pairs)
            t_hash += perf() - t0
        t0 = perf()
        buffer.finish()
        t_hash += perf() - t0
        map_span.set_cost(max(1, n_in))
        map_span.set(records=n_in, bytes=len(data))
    task_counters.inc(C.T_HASH, t_hash)
    return task_counters


class OnePassEngine:
    """Runs :class:`OnePassJob` programs over a :class:`LocalCluster`.

    With a ``fault_plan``, map output is *staged* per task and delivered to
    reducers only when the task completes; a killed attempt's staged chunks
    are discarded and the task re-runs on another node.  This is the
    fault-tolerance overhead the paper alludes to when it excludes infinite
    streams: push-based pipelining and recoverability pull in opposite
    directions, and recovery costs one task's worth of buffering latency.

    Because pushed output never stays at the mappers, reduce-side recovery
    needs its own durability: with a fault plan, every delivered chunk is
    also appended to a 2-way replicated :class:`PartitionLog` (real,
    accounted disk I/O — the overhead ``bench_fault_overhead`` measures).
    A lost reduce task — killed attempt or node crash — is rebuilt by
    replaying its partition's log in delivery order, which reproduces the
    exact pre-failure state (and output byte-for-byte).  With
    ``checkpoint_interval > 0`` the incremental-hash state is additionally
    snapshotted into a :class:`CheckpointStore` every that-many chunks, so
    recovery restores the newest checkpoint and replays only the log
    suffix past it.
    """

    name = "onepass"

    def __init__(
        self,
        cluster: LocalCluster,
        *,
        map_slots: int = 2,
        fault_plan: FaultPlan | None = None,
        checkpoint_interval: int = 0,
        speculation: SpeculationPolicy | None = None,
        executor: Any = None,
        tracer: Any = None,
        journal: Any = None,
    ) -> None:
        if checkpoint_interval < 0:
            raise ValueError("checkpoint_interval must be >= 0")
        self.cluster = cluster
        self.scheduler = WaveScheduler(cluster.compute_node_names, map_slots=map_slots)
        self.fault_plan = fault_plan
        self.checkpoint_interval = checkpoint_interval
        self.speculation = speculation
        self.executor = resolve_executor(executor)
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.journal = journal if journal is not None else NULL_JOURNAL

    def _read_block(self, split: InputSplit, node: str) -> tuple[bytes, bool]:
        hdfs = self.cluster.hdfs
        local = node in split.preferred_nodes
        data = hdfs.read_block_bytes(split.block_id, from_node=node if local else None)
        return data, local

    def _run_map_with_retries(
        self,
        job: OnePassJob,
        recovery: RecoveryManager,
        session: Any,
        assignment: Any,
        live: list[str],
        deliver: Any,
        counters: Counters,
    ) -> int:
        """Run one map task under a fault plan, staging output until success.

        Attempt semantics live in the shared
        :class:`~repro.mapreduce.recovery.RecoveryManager` loop — the same
        one the Hadoop engine uses — so who is charged, where retries land
        and when the job aborts cannot drift between engines.
        """
        from repro.exec.kernels import OnePassMapSpec

        network_bytes = 0
        self.journal.append(
            K_TASK_GRANT, task=assignment.task_id, node=assignment.node
        )

        def attempt(node: str) -> list[tuple[int, list, int]]:
            nonlocal network_bytes
            data, local = self._read_block(assignment.split, node)
            if not local:
                network_bytes += len(data)
            res = session.run_one(
                "onepass_map", OnePassMapSpec(assignment.task_id, node, data)
            )
            counters.merge(res.counters)
            self.tracer.absorb(res.trace)
            return res.staged

        def discard(_node: str, staged: list[tuple[int, list, int]]) -> None:
            # A dead or losing attempt's staged output is simply dropped —
            # nothing reached the reducers.
            staged.clear()

        node, staged = recovery.run_map_task(
            assignment.task_id,
            assignment.node,
            live,
            assignment.split.nbytes,
            attempt,
            discard,
        )
        for partition, pairs, nbytes in staged:
            counters.inc(C.STAGED_OUTPUT_BYTES, nbytes)
            deliver(partition, pairs, nbytes, assignment.task_id)
        self.journal.append(
            K_MAP_COMMIT,
            task=assignment.task_id,
            node=node,
            nbytes=sum(nbytes for _, _, nbytes in staged),
        )
        return network_bytes

    # -- reduce-side durability -----------------------------------------------

    def _log_replicas(self, node: str) -> list[tuple[str, LocalDisk]]:
        """Replica disks for a reducer's log: its own node plus the next."""
        names = self.cluster.compute_node_names
        chosen = [node]
        if len(names) > 1:
            chosen.append(names[(names.index(node) + 1) % len(names)])
        return [(n, self.cluster.nodes[n].intermediate_disk) for n in chosen]

    def _save_checkpoint(
        self,
        rtask: OnePassReduceTask,
        log: PartitionLog,
        store: CheckpointStore,
    ) -> bool:
        payload = rtask.checkpoint_payload()
        if payload is None:
            return False
        store.save(log.last_seq, payload)
        self.journal.append(
            K_CHECKPOINT, partition=rtask.partition, seq=log.last_seq, payload=payload
        )
        self.tracer.event(
            "checkpoint.saved",
            "checkpoint",
            node=rtask.node,
            task=f"reduce:{rtask.partition:03d}",
            seq=log.last_seq,
            bytes=len(payload),
        )
        return True

    def _rebuild_reduce_task(
        self,
        job: OnePassJob,
        partition: int,
        node: str,
        log: PartitionLog,
        store: CheckpointStore,
        counters: Counters,
    ) -> OnePassReduceTask:
        """Reconstruct a lost reduce task on ``node``.

        Restores the newest surviving checkpoint (if any) and replays the
        delivery log past it, in sequence order — which reproduces the
        exact pre-failure state, early emissions included.  Without a
        checkpoint the whole log replays.
        """
        disk = self.cluster.nodes[node].intermediate_disk
        disk.delete_prefix(f"onepass/{partition:03d}")
        rtask = OnePassReduceTask(job, partition, node, disk, tracer=self.tracer)
        after_seq = 0
        checkpoint = store.latest()
        if checkpoint is not None:
            after_seq, payload = checkpoint
            rtask.restore_payload(payload)
            counters.inc(C.CHECKPOINT_RESTORES)
            self.tracer.event(
                "checkpoint.restored",
                "recovery",
                node=node,
                task=f"reduce:{partition:03d}",
                seq=after_seq,
            )
        replayed = 0
        nbytes_replayed = 0
        with self.tracer.span(
            "replay", "recovery", node=node, task=f"reduce:{partition:03d}"
        ) as replay_span:
            for _seq, pairs, nbytes in log.replay(after_seq):
                rtask.accept(pairs, nbytes)
                replayed += len(pairs)
                nbytes_replayed += nbytes
                counters.inc(C.REPLAYED_RECORDS, len(pairs))
                counters.inc(C.BYTES_RESHUFFLED, nbytes)
            replay_span.set_cost(max(1, byte_cost(nbytes_replayed)))
            replay_span.set(records=replayed, bytes=nbytes_replayed)
        return rtask

    def _handle_node_crash(
        self,
        crashed: str,
        *,
        job: OnePassJob,
        live: list[str],
        reducer_nodes: dict[int, str],
        reduce_tasks: dict[int, OnePassReduceTask],
        logs: dict[int, PartitionLog],
        checkpoints: dict[int, CheckpointStore],
        counters: Counters,
    ) -> None:
        """React to losing a whole node mid-job.

        Completed map output was already delivered and logged, so no map
        re-executes; the node's reduce tasks rebuild on survivors from
        checkpoint + log replay, and its log/checkpoint replicas re-home.
        """
        counters.inc(C.NODE_CRASHES)
        self.tracer.event("node.crash", "recovery", node=crashed)
        live.remove(crashed)
        if not live:
            raise RuntimeError(f"node crash of {crashed} left no live compute nodes")
        self.cluster.wipe_node(crashed)
        report = self.cluster.hdfs.handle_node_loss(crashed)
        if report.blocks_rereplicated:
            counters.inc(C.BLOCKS_REREPLICATED, report.blocks_rereplicated)
            counters.inc(C.BYTES_REREPLICATED, report.bytes_rereplicated)

        for partition in sorted(logs):
            for store in (logs[partition], checkpoints[partition]):
                holders = [n for n, _ in store.replicas]
                if crashed not in holders:
                    continue
                candidates = [n for n in live if n not in holders]
                if candidates:
                    new_node = candidates[0]
                    store.replace_replica(
                        crashed, new_node, self.cluster.nodes[new_node].intermediate_disk
                    )

        for partition in sorted(reducer_nodes):
            if reducer_nodes[partition] != crashed:
                continue
            dead = reduce_tasks[partition]
            counters.merge(dead.counters)  # its work still happened
            counters.inc(C.TASKS_RERUN)
            new_node = live[partition % len(live)]
            reducer_nodes[partition] = new_node
            reduce_tasks[partition] = self._rebuild_reduce_task(
                job, partition, new_node, logs[partition], checkpoints[partition], counters
            )

    def run(self, job: OnePassJob) -> JobResult:
        from repro.exec.kernels import OnePassMapSpec

        if not job.input_path or not job.output_path:
            raise ValueError("job must set input_path and output_path")
        cluster = self.cluster
        hdfs = cluster.hdfs
        cfg = job.config
        counters = Counters()
        t_start = time.perf_counter()

        splits = hdfs.input_splits(job.input_path)
        assignments, sched_stats = self.scheduler.schedule(splits)
        reducer_nodes = self.scheduler.assign_reducers(cfg.num_reducers)

        # ---- journal resume protocol ----
        journal = self.journal
        appends0, jbytes0 = journal.appends, journal.bytes_written
        committed: dict[int, tuple[Any, ...]] = {}
        journal_checkpoints: dict[int, tuple[int, bytes]] = {}
        if journal.enabled:
            state = journal.resume_state()
            fingerprint = job_fingerprint(job, self.name)
            state.check_spec(fingerprint)
            if state.truncated_bytes:
                self.tracer.event(
                    "journal.truncated", "journal", bytes=state.truncated_bytes
                )
            done_commits = state.output_commits > 0
            if done_commits or state.complete(cfg.num_reducers):
                if not done_commits:
                    journal.append(
                        K_JOB_SPEC, spec=fingerprint, engine=self.name, job=job.name
                    )
                output_records = emit_committed_output(
                    hdfs, job, reducer_nodes, state, counters, self.tracer
                )
                if not done_commits:
                    journal.append(
                        K_OUTPUT_COMMIT,
                        path=job.output_path,
                        records=output_records,
                        digest=output_digest(hdfs, job.output_path),
                    )
                journal.finalize()
                counters.inc(C.JOURNAL_APPENDS, journal.appends - appends0)
                counters.inc(C.JOURNAL_BYTES, journal.bytes_written - jbytes0)
                return JobResult(
                    job_name=job.name,
                    engine=self.name,
                    output_path=job.output_path,
                    counters=counters,
                    wall_time=time.perf_counter() - t_start,
                    phase_times={"map": 0.0, "reduce": 0.0},
                    schedule=sched_stats,
                    network_bytes=0,
                    output_records=output_records,
                    extras={
                        "early_emitted": [],
                        "approximate_results": [],
                        "mode": cfg.mode,
                    },
                    trace=self.tracer if self.tracer.enabled else None,
                )
            journal.append(
                K_JOB_SPEC, spec=fingerprint, engine=self.name, job=job.name
            )
            committed = dict(state.reduce_commits)
            journal_checkpoints = dict(state.checkpoints)
            if committed or journal_checkpoints:
                counters.inc(C.JOURNAL_REPLAYED_COMMITS, len(committed))
                self.tracer.event(
                    "journal.resume",
                    "journal",
                    commits=len(committed),
                    checkpoints=len(journal_checkpoints),
                )

        reduce_tasks = {
            p: OnePassReduceTask(
                job,
                p,
                node,
                cluster.nodes[node].intermediate_disk,
                tracer=self.tracer,
            )
            for p, node in reducer_nodes.items()
        }
        for partition in sorted(journal_checkpoints):
            # Restore journaled reduce state so only the post-checkpoint
            # suffix of re-delivered chunks is absorbed.  Only the
            # incremental backend is checkpointable; committed partitions
            # never run at all.
            if partition in committed:
                continue
            rtask = reduce_tasks[partition]
            if rtask.checkpoint_payload() is None:
                continue
            seq, payload = journal_checkpoints[partition]
            rtask.restore_payload(payload)
            rtask.restored_through = seq
            counters.inc(C.CHECKPOINT_RESTORES)
            self.tracer.event(
                "checkpoint.restored",
                "recovery",
                node=rtask.node,
                task=f"reduce:{partition:03d}",
                seq=seq,
            )
        live = list(cluster.compute_node_names)
        recovery = RecoveryManager(
            self.fault_plan, counters, speculation=self.speculation, tracer=self.tracer
        )
        logs: dict[int, PartitionLog] = {}
        checkpoints: dict[int, CheckpointStore] = {}
        chunks_since_checkpoint: dict[int, int] = {}
        if self.fault_plan is not None:
            for p, node in reducer_nodes.items():
                replicas = self._log_replicas(node)
                logs[p] = PartitionLog(p, replicas, counters)
                checkpoints[p] = CheckpointStore(p, replicas, counters)
                chunks_since_checkpoint[p] = 0
            if self.fault_plan.has_disk_faults:
                for name in sorted(cluster.compute_node_names):
                    cluster.nodes[name].intermediate_disk.fault_injector = (
                        self.fault_plan
                    )
        network_bytes = 0

        def sink(
            partition: int,
            pairs: list[tuple[Any, Any]],
            nbytes: int,
            map_task: int,
        ) -> None:
            nonlocal network_bytes
            if partition in committed:
                return  # journaled output; the reducer never runs
            network_bytes += nbytes
            rtask = reduce_tasks[partition]
            self.tracer.metrics.histogram("push.chunk.bytes").observe(nbytes)
            with self.tracer.span(
                "push",
                "shuffle",
                node=rtask.node,
                task=f"reduce:{partition:03d}",
                cost=byte_cost(nbytes),
                bytes=nbytes,
                records=len(pairs),
                map_task=map_task,
            ):
                if partition in logs:
                    logs[partition].append(pairs, nbytes)
                absorbed = rtask.accept(pairs, nbytes)
            if absorbed and self.checkpoint_interval and partition in checkpoints:
                chunks_since_checkpoint[partition] += 1
                if chunks_since_checkpoint[partition] >= self.checkpoint_interval:
                    if self._save_checkpoint(
                        reduce_tasks[partition], logs[partition], checkpoints[partition]
                    ):
                        chunks_since_checkpoint[partition] = 0

        codec = hdfs.codec(hdfs.namenode.file_info(job.input_path).codec_name)
        c_map0 = self.tracer.clock
        t_map_start = time.perf_counter()
        context = {"job": job, "codec": codec, "trace": self.tracer.enabled}
        with self.executor.session(context) as session:
            if self.fault_plan is None:
                idx = 0
                while idx < len(assignments):
                    batch = assignments[idx : idx + session.max_batch]
                    idx += len(batch)
                    specs = []
                    for a in batch:
                        journal.append(K_TASK_GRANT, task=a.task_id, node=a.node)
                        data, local = self._read_block(a.split, a.node)
                        if not local:
                            network_bytes += len(data)
                        specs.append(OnePassMapSpec(a.task_id, a.node, data))
                    for a, res in zip(batch, session.run_batch("onepass_map", specs)):
                        counters.merge(res.counters)
                        self.tracer.absorb(res.trace)
                        for partition, pairs, nbytes in res.staged:
                            sink(partition, pairs, nbytes, a.task_id)
                        journal.append(
                            K_MAP_COMMIT,
                            task=a.task_id,
                            node=a.node,
                            nbytes=sum(n for _, _, n in res.staged),
                        )
            else:
                completed_maps = 0
                for assignment in assignments:
                    network_bytes += self._run_map_with_retries(
                        job, recovery, session, assignment, live, sink, counters
                    )
                    completed_maps += 1
                    for crashed in self.fault_plan.crashes_due(completed_maps):
                        with counters.timer(C.T_RECOVERY):
                            self._handle_node_crash(
                                crashed,
                                job=job,
                                live=live,
                                reducer_nodes=reducer_nodes,
                                reduce_tasks=reduce_tasks,
                                logs=logs,
                                checkpoints=checkpoints,
                                counters=counters,
                            )
        t_map = time.perf_counter() - t_map_start
        self.tracer.add_span(
            "map-phase", "phase", c_map0, self.tracer.clock, wall_s=t_map
        )
        get_logger("onepass").info(
            "map.phase.done", tasks=len(assignments), wall_ms=t_map * 1e3
        )
        for partition in sorted(reduce_tasks):
            if partition not in committed:
                journal.append(K_SHUFFLE_COMMIT, partition=partition)

        c_reduce0 = self.tracer.clock
        t_reduce_start = time.perf_counter()
        hdfs.namenode.create_file(job.output_path, codec_name="binary")
        output_records = 0
        early: list[tuple[Any, Any]] = []
        approx: list[ApproximateResult] = []
        for partition in sorted(reduce_tasks):
            if partition in committed:
                output = list(committed[partition])
                output_records += len(output)
                if output:
                    hdfs.append_block(
                        job.output_path, output, writer_node=reducer_nodes[partition]
                    )
                continue

            def attempt(
                attempt_idx: int, partition: int = partition
            ) -> tuple[list[ApproximateResult], list[Any], list[tuple[Any, Any]]]:
                if attempt_idx > 0:
                    # The previous attempt died mid-finish: rebuild its
                    # state from checkpoint + log replay on the next node.
                    dead = reduce_tasks[partition]
                    counters.merge(dead.counters)  # its work still happened
                    counters.inc(C.TASKS_RERUN)
                    new_node = live[(partition + attempt_idx) % len(live)]
                    reducer_nodes[partition] = new_node
                    with counters.timer(C.T_RECOVERY):
                        reduce_tasks[partition] = self._rebuild_reduce_task(
                            job,
                            partition,
                            new_node,
                            logs[partition],
                            checkpoints[partition],
                            counters,
                        )
                rtask = reduce_tasks[partition]
                task_approx = rtask.approximate_results()
                task_output = rtask.finish()
                return task_approx, task_output, list(rtask.early_emitted)

            approx_p, output, early_p = recovery.run_reduce_task(partition, attempt)
            journal.append(K_REDUCE_COMMIT, partition=partition, records=tuple(output))
            if journal.enabled:
                self.tracer.event(
                    "journal.commit",
                    "journal",
                    task=f"reduce:{partition:03d}",
                    records=len(output),
                )
            approx.extend(approx_p)
            early.extend(early_p)
            output_records += len(output)
            if output:
                hdfs.append_block(
                    job.output_path, output, writer_node=reducer_nodes[partition]
                )
            counters.merge(reduce_tasks[partition].counters)
        t_reduce = time.perf_counter() - t_reduce_start
        self.tracer.add_span(
            "reduce-phase", "phase", c_reduce0, self.tracer.clock, wall_s=t_reduce
        )
        get_logger("onepass").info(
            "reduce.phase.done",
            partitions=len(reduce_tasks),
            records=output_records,
            wall_ms=t_reduce * 1e3,
        )

        for partition in sorted(logs):
            logs[partition].cleanup()
            checkpoints[partition].cleanup()

        counters.inc(C.OUTPUT_BYTES, hdfs.file_bytes(job.output_path))
        if journal.enabled:
            journal.append(
                K_OUTPUT_COMMIT,
                path=job.output_path,
                records=output_records,
                digest=output_digest(hdfs, job.output_path),
            )
            journal.finalize()
            counters.inc(C.JOURNAL_APPENDS, journal.appends - appends0)
            counters.inc(C.JOURNAL_BYTES, journal.bytes_written - jbytes0)
        return JobResult(
            job_name=job.name,
            engine=self.name,
            output_path=job.output_path,
            counters=counters,
            wall_time=time.perf_counter() - t_start,
            phase_times={"map": t_map, "reduce": t_reduce},
            schedule=sched_stats,
            network_bytes=network_bytes,
            output_records=output_records,
            extras={
                "early_emitted": early,
                "approximate_results": approx,
                "mode": cfg.mode,
            },
            trace=self.tracer if self.tracer.enabled else None,
        )
