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
from typing import Any, Callable, Iterable

from repro.core.aggregates import COLLECT, Aggregator
from repro.core.hotset import ApproximateResult, HotSetIncrementalHash
from repro.core.hybrid_hash import HybridHashGrouper
from repro.core.incremental import EmitPolicy, IncrementalHash
from repro.core.partitioner import ChunkSink, MapSideHashCombiner, ScanPartitionBuffer
from repro.io.disk import LocalDisk
from repro.mapreduce.api import ReduceFn
from repro.mapreduce.counters import C, Counters
from repro.mapreduce.driver import JobRun, PushShuffleDriver
from repro.mapreduce.faults import FaultPlan
from repro.mapreduce.journal import K_CHECKPOINT
from repro.mapreduce.recovery import CheckpointStore, SpeculationPolicy
from repro.mapreduce.runtime import LocalCluster
from repro.obs.tracer import NULL_TRACER, byte_cost

__all__ = [
    "OnePassConfig",
    "OnePassJob",
    "OnePassReduceTask",
    "OnePassEngine",
    "onepass_map_buffer",
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
    #: Inert: read by nothing in ``src/``.  Kept, with its default, because
    #: ``benchmarks/e2e`` sets it and ``job_fingerprint`` hashes every field;
    #: the benchmark-only PR that retires the ``*.tuple.wall_s`` names drops it.
    batch: bool = False

    def __post_init__(self) -> None:
        if self.num_reducers < 1:
            raise ValueError("num_reducers must be >= 1")
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if self.hotset_capacity < 1:
            raise ValueError("hotset_capacity must be >= 1")
        if self.spill_partitions < 2:
            raise ValueError("spill_partitions must be >= 2")
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
        #: journal checkpoint; :meth:`accept_segment` drops them on re-delivery.
        self.restored_through = 0
        self._chunks_seen = 0
        cfg = job.config
        namespace = f"onepass/{partition:03d}"
        #: The one hash backend.  ``_fold`` absorbs a pushed chunk into it
        #: and ``_drain`` yields its ``(key, result)`` groups; both are
        #: picked here, once (each is one ``AccountedStateTable.fold`` per
        #: chunk, or per hot-set segment, plus its own miss routing).
        backend: IncrementalHash | HotSetIncrementalHash | HybridHashGrouper
        if job.is_aggregate and cfg.mode == "incremental":
            backend = IncrementalHash(
                job.aggregator,
                memory_bytes=cfg.reduce_memory_bytes,
                disk=disk,
                namespace=namespace,
                emit_policy=job.emit_policy,
                counters=self.counters,
            )
            self._fold, self._drain = backend.update_batch, backend.results
        elif job.is_aggregate and cfg.mode == "hotset":
            backend = HotSetIncrementalHash(
                job.aggregator,
                disk,
                namespace,
                capacity=cfg.hotset_capacity,
                spill_partitions=cfg.spill_partitions,
                counters=self.counters,
            )
            self._fold, self._drain = backend.update_batch, backend.results
        else:
            backend = HybridHashGrouper(
                disk,
                namespace,
                cfg.reduce_memory_bytes,
                aggregator=job.aggregator or COLLECT,
                spill_partitions=cfg.spill_partitions,
                counters=self.counters,
            )
            self._fold, self._drain = backend.add_batch, backend.finish
        self._backend = backend

    # -- ingestion (push target) ----------------------------------------------

    def accept_segment(self, pairs: list[tuple[Any, Any]], nbytes: int) -> bool:
        """Absorb one pushed chunk; False when a restored checkpoint covers it."""
        self._chunks_seen += 1
        if self._chunks_seen <= self.restored_through:
            return False
        counters = self.counters
        counters.inc(C.SHUFFLE_BYTES, nbytes)
        counters.inc(C.REDUCE_INPUT_RECORDS, len(pairs))
        trc = self.tracer
        backend = self._backend
        spill0 = backend.spilled_records if trc.enabled else 0
        perf = time.perf_counter
        t0 = perf()
        self._fold(pairs)
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
        backend = self._backend
        return backend.early_emitted if isinstance(backend, IncrementalHash) else []

    def approximate_results(self) -> list[ApproximateResult]:
        backend = self._backend
        if isinstance(backend, HotSetIncrementalHash):
            return list(backend.approximate_results())
        return []

    # -- finish ---------------------------------------------------------------------

    def finish(self) -> list[Any]:
        """Drain the backend and produce this partition's output records."""
        counters = self.counters
        counters.inc(C.REDUCE_TASKS)
        job = self.job
        output: list[Any] = []
        groups = 0
        backend = self._backend
        with self.tracer.span(
            "reduce", "reduce", node=self.node, task=self._task
        ) as reduce_span:
            if not isinstance(backend, HybridHashGrouper):
                reduce_span.set(resident_keys=backend.resident_keys)
            if job.is_aggregate:
                finalize = job.finalize or _default_finalize
                for key, result in self._drain():
                    groups += 1
                    output.extend(finalize(key, result))
            else:
                assert job.reduce_fn is not None
                perf = time.perf_counter
                t_reduce = 0.0
                for key, values in self._drain():
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

    # -- checkpointing --------------------------------------------------------------

    def checkpoint_payload(self) -> bytes | None:
        """Snapshot the reduce state, if this backend supports it.

        Only the incremental-hash backend is checkpointable (its state is
        one in-memory table); hotset and hybrid-hash backends return
        ``None`` and recover by full log replay instead.
        """
        backend = self._backend
        if isinstance(backend, IncrementalHash):
            return backend.checkpoint_payload()
        return None

    def restore_payload(self, payload: bytes) -> None:
        """Load a checkpoint produced by :meth:`checkpoint_payload`."""
        assert isinstance(self._backend, IncrementalHash)
        self._backend.restore_payload(payload)


def _default_finalize(key: Any, result: Any) -> Iterable[Any]:
    yield (key, result)


def onepass_map_buffer(
    job: OnePassJob, sink: ChunkSink, counters: Counters
) -> ScanPartitionBuffer | MapSideHashCombiner:
    """The one-pass map task's collect buffer, pushing its chunks to ``sink``:
    map-side hash aggregation for a job with an aggregator (unless the
    config turns it off), scan-only partitioning otherwise."""
    cfg = job.config
    if job.is_aggregate and cfg.map_side_combine:
        return MapSideHashCombiner(
            cfg.num_reducers,
            job.aggregator,
            sink,
            memory_bytes=cfg.map_memory_bytes,
            counters=counters,
        )
    return ScanPartitionBuffer(
        cfg.num_reducers, sink, buffer_bytes=cfg.map_buffer_bytes, counters=counters
    )


class OnePassEngine(PushShuffleDriver):
    """Runs :class:`OnePassJob` programs over a :class:`LocalCluster`.

    On Table III's axes: hash group-by, *push* shuffle, incremental (or
    hybrid-hash blocking) reduce.  The lifecycle and the replicated
    delivery logs are :class:`~repro.mapreduce.driver.PushShuffleDriver`'s.

    A map attempt's output is *staged* per task and delivered to reducers
    only once the attempt has survived; a killed attempt's chunks are
    discarded and the task re-runs on another node.  A ``fault_plan`` adds
    the replicated delivery log each chunk is appended to first.  This is
    the fault-tolerance overhead the paper alludes to when it excludes
    infinite streams: push-based pipelining and recoverability pull in
    opposite directions, and recovery costs one task's worth of buffering
    latency plus the delivery-log I/O ``bench_fault_overhead`` measures.

    With ``checkpoint_interval > 0`` the incremental-hash state is
    additionally snapshotted into a :class:`CheckpointStore` (and the
    journal) every that-many chunks, so recovery restores the newest
    checkpoint and replays only the log suffix past it — early emissions
    included.
    """

    name = "onepass"
    map_kernel = "onepass_map"
    reduce_namespace = "onepass"

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
        super().__init__(
            cluster,
            map_slots=map_slots,
            fault_plan=fault_plan,
            speculation=speculation,
            executor=executor,
            tracer=tracer,
            journal=journal,
        )
        self.checkpoint_interval = checkpoint_interval

    def _new_extras(self, job: OnePassJob) -> dict[str, Any]:
        return {"early_emitted": [], "approximate_results": [], "mode": job.config.mode}

    def _open(self, run: JobRun) -> None:
        super()._open(run)
        run.checkpoint_stores = {
            p: CheckpointStore(p, log.replicas, run.counters) for p, log in run.logs.items()
        }
        run.chunks_since_checkpoint = dict.fromkeys(run.logs, 0)
        #: partition -> the surviving reduce attempt's approximate results.
        run.approx = {}
        for partition in sorted(run.checkpoints):
            # Restore journaled reduce state so only the post-checkpoint
            # suffix of re-delivered chunks is absorbed.  Only the
            # incremental backend is checkpointable; committed partitions
            # never run at all.
            rtask = run.reduce_tasks[partition]
            if partition in run.committed or rtask.checkpoint_payload() is None:
                continue
            seq, payload = run.checkpoints[partition]
            rtask.restore_payload(payload)
            rtask.restored_through = seq
            self._note_restore(run, rtask, seq)

    def _note_restore(self, run: JobRun, rtask: OnePassReduceTask, seq: int) -> None:
        run.counters.inc(C.CHECKPOINT_RESTORES)
        self.tracer.event(
            "checkpoint.restored",
            "recovery",
            node=rtask.node,
            task=f"reduce:{rtask.partition:03d}",
            seq=seq,
        )

    # -- map side: in-memory scan/combine, pushed on completion -----------------

    def _map_spec(self, run: JobRun, task_id: int, node: str, data: bytes) -> Any:
        from repro.exec.kernels import PushMapSpec

        return PushMapSpec(task_id, node, data)

    def _commit_map(self, run: JobRun, task_id: int, node: str, res: Any) -> int:
        """Push each chunk to its reducer: log it, absorb it, maybe checkpoint."""
        for partition, pairs, nbytes in res.chunks:
            if partition in run.committed:
                continue  # journaled output; the reducer never runs
            run.network_bytes += nbytes
            rtask = run.reduce_tasks[partition]
            with self.tracer.span(
                "push",
                "shuffle",
                node=rtask.node,
                task=f"reduce:{partition:03d}",
                cost=byte_cost(nbytes),
                bytes=nbytes,
                records=len(pairs),
                map_task=task_id,
            ):
                absorbed = self._accept_chunk(run, partition, pairs, nbytes)
            if absorbed and self.checkpoint_interval and partition in run.logs:
                run.chunks_since_checkpoint[partition] += 1
                if run.chunks_since_checkpoint[partition] >= self.checkpoint_interval:
                    if self._save_checkpoint(run, rtask):
                        run.chunks_since_checkpoint[partition] = 0
        return sum(nbytes for _, _, nbytes in res.chunks)

    # -- reduce side: hash state, checkpointed ------------------------------------

    def _save_checkpoint(self, run: JobRun, rtask: OnePassReduceTask) -> bool:
        payload = rtask.checkpoint_payload()
        if payload is None:
            return False
        log = run.logs[rtask.partition]
        run.checkpoint_stores[rtask.partition].save(log.last_seq, payload)
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

    def _new_reduce_task(self, run: JobRun, partition: int, node: str) -> Any:
        disk = self._disk(node)
        return OnePassReduceTask(run.job, partition, node, disk, tracer=self.tracer)

    def _stores(self, run: JobRun, partition: int) -> list[Any]:
        return [run.logs[partition], run.checkpoint_stores[partition]]

    def _restore_reduce_state(self, run: JobRun, rtask: OnePassReduceTask) -> int:
        """Restore the newest surviving checkpoint; the log replays past it."""
        checkpoint = run.checkpoint_stores[rtask.partition].latest()
        if checkpoint is None:
            return 0
        seq, payload = checkpoint
        rtask.restore_payload(payload)
        self._note_restore(run, rtask, seq)
        return seq

    def _finish_reduce(self, run: JobRun, partition: int) -> list[Any]:
        rtask = run.reduce_tasks[partition]
        # Read before finish() drains the hot set; a killed attempt's
        # entry is overwritten by its retry.
        run.approx[partition] = rtask.approximate_results()
        return rtask.finish()

    def _close(self, run: JobRun) -> None:
        super()._close(run)
        for partition in sorted(run.reduce_tasks):
            run.extras["approximate_results"].extend(run.approx.get(partition, ()))
            run.extras["early_emitted"].extend(run.reduce_tasks[partition].early_emitted)
