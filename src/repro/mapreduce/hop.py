"""MapReduce Online (the Hadoop Online Prototype, HOP) — pipelined variant.

HOP (Condie et al., NSDI 2010) changes two things relative to stock Hadoop,
both reproduced here:

1. **Push-based pipelining.**  As a map task produces output it eagerly
   pushes sorted mini-segments to the reducers; the granularity is a
   parameter (:attr:`HOPConfig.granularity_records`).  An adaptive control
   loop applies backpressure: when a reducer's in-memory backlog exceeds a
   threshold, mappers *stage* their chunks on local disk instead and the
   staged data is delivered when the reducer catches up.
2. **Periodic snapshots.**  At configured fractions of map completion
   (25%, 50%, 75%, ...) each reducer repeats the merge over everything it
   has received so far and applies the reduce function to produce an early
   answer.  As the paper stresses, this is *not* incremental computation:
   every snapshot re-merges from scratch and re-reads any on-disk runs,
   which is exactly the extra I/O the paper attributes to HOP's design.

Crucially, HOP keeps the sort-merge group-by, so the blocking final merge
and its multi-pass I/O remain — the paper's central observation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator

from repro.io.batch import merge_segments, sort_bucket
from repro.io.disk import LocalDisk
from repro.io.runio import stream_run, write_run
from repro.mapreduce.api import MapReduceJob
from repro.mapreduce.counters import C, Counters
from repro.mapreduce.driver import JobRun, PushShuffleDriver
from repro.mapreduce.faults import FaultPlan
from repro.mapreduce.merge import MultiPassMerger, group_sorted, merge_sorted
from repro.mapreduce.partition import KeyPartitions, Partitioner, hash_partitioner
from repro.mapreduce.recovery import SpeculationPolicy
from repro.mapreduce.runtime import LocalCluster
from repro.mapreduce.sortmerge import map_slices
from repro.obs.tracer import NULL_TRACER, byte_cost

__all__ = ["HOPConfig", "Snapshot", "PipelinedReduceTask", "HOPEngine"]


@dataclass(slots=True)
class HOPConfig:
    """Knobs specific to the pipelined prototype."""

    granularity_records: int = 2000
    snapshot_fractions: tuple[float, ...] = (0.25, 0.5, 0.75)
    backpressure_bytes: int = 16 * 1024 * 1024

    def __post_init__(self) -> None:
        if self.granularity_records < 1:
            raise ValueError("granularity_records must be >= 1")
        for f in self.snapshot_fractions:
            if not 0 < f < 1:
                raise ValueError("snapshot fractions must lie in (0, 1)")
        if tuple(sorted(self.snapshot_fractions)) != tuple(self.snapshot_fractions):
            raise ValueError("snapshot fractions must be increasing")


@dataclass(frozen=True, slots=True)
class Snapshot:
    """One early answer: input fraction seen and the reduce output."""

    fraction: float
    records: tuple[Any, ...]


class PipelinedReduceTask:
    """Reduce task that accepts eagerly pushed mini-segments."""

    def __init__(
        self,
        job: MapReduceJob,
        partition: int,
        node: str,
        disk: LocalDisk,
        hop: HOPConfig,
        *,
        tracer: Any = NULL_TRACER,
    ) -> None:
        self.job = job
        self.partition = partition
        self.node = node
        self.disk = disk
        self.hop = hop
        self.counters = Counters()
        self.tracer = tracer
        self._task = f"reduce:{partition:03d}"
        self._merger = MultiPassMerger(
            disk,
            f"hop-reduce/{partition:03d}",
            factor=job.config.merge_factor,
            counters=self.counters,
            tracer=tracer,
            node=node,
            task=self._task,
        )
        self._memory: list[list[tuple[Any, Any]]] = []
        self._memory_bytes = 0

    @property
    def backlog_bytes(self) -> int:
        return self._memory_bytes

    def accept_chunk(self, pairs: list[tuple[Any, Any]], nbytes: int) -> None:
        """Receive one pushed, sorted mini-segment."""
        self._memory.append(pairs)
        self._memory_bytes += nbytes
        self.counters.inc(C.SHUFFLE_BYTES, nbytes)
        if self._memory_bytes >= self.job.config.reduce_buffer_bytes:
            self._spill_memory()

    def _spill_memory(self) -> None:
        if not self._memory:
            return
        segments, self._memory = self._memory, []
        nbytes, self._memory_bytes = self._memory_bytes, 0
        with self.tracer.span(
            "spill",
            "spill",
            node=self.node,
            task=self._task,
            cost=byte_cost(nbytes),
            bytes=nbytes,
            segments=len(segments),
        ):
            if self.job.config.batch:
                self._merger.add_run(merge_segments(segments))
            else:
                self._merger.add_run(merge_sorted([iter(s) for s in segments]))

    # -- snapshots -----------------------------------------------------------

    def snapshot(self, fraction: float) -> Snapshot:
        """Repeat merge + reduce over all data received so far.

        On-disk runs are re-read (accounted), in-memory segments are merged
        in RAM; nothing is consumed, so the final merge still happens later
        — this duplication of work is HOP's snapshot overhead.
        """
        self.counters.inc(C.SNAPSHOTS)
        with self.tracer.span(
            "snapshot", "snapshot", node=self.node, task=self._task, fraction=fraction
        ) as snap_span:
            if self.job.config.batch:
                segments: list[Iterable[tuple[Any, Any]]] = list(self._memory)
                for path, nbytes in self._merger.run_paths:
                    segments.append(list(stream_run(self.disk, path)))
                    self.counters.inc(C.MERGE_READ_BYTES, nbytes)
                with self.counters.timer(C.T_MERGE):
                    merged = merge_segments(segments)
            else:
                streams: list[Iterator[tuple[Any, Any]]] = [
                    iter(seg) for seg in self._memory
                ]
                for path, nbytes in self._merger.run_paths:
                    streams.append(stream_run(self.disk, path))
                    self.counters.inc(C.MERGE_READ_BYTES, nbytes)
                with self.counters.timer(C.T_MERGE):
                    merged = list(merge_sorted(streams))
            output: list[Any] = []
            with self.counters.timer(C.T_REDUCE_FN):
                for key, values in group_sorted(iter(merged)):
                    output.extend(self.job.reduce_fn(key, values))
            snap_span.set_cost(max(1, len(merged)))
            snap_span.set(records=len(merged), out_records=len(output))
        return Snapshot(fraction=fraction, records=tuple(output))

    # -- final reduce ------------------------------------------------------------

    def run(self) -> list[Any]:
        self.counters.inc(C.REDUCE_TASKS)
        with self.tracer.span(
            "reduce", "reduce", node=self.node, task=self._task
        ) as reduce_span:
            if self._merger.run_count == 0:
                if self.job.config.batch:
                    stream: Iterable[tuple[Any, Any]] = merge_segments(self._memory)
                else:
                    stream = merge_sorted([iter(s) for s in self._memory])
            else:
                self._spill_memory()
                stream = self._merger.final_merge()
            output: list[Any] = []
            groups = 0
            n_in = 0
            perf = time.perf_counter
            t_reduce = 0.0
            for key, values in group_sorted(stream):
                groups += 1
                vals = list(values)
                n_in += len(vals)
                self.counters.inc(C.REDUCE_INPUT_RECORDS, len(vals))
                t0 = perf()
                output.extend(self.job.reduce_fn(key, iter(vals)))
                t_reduce += perf() - t0
            self.counters.inc(C.T_REDUCE_FN, t_reduce)
            self.counters.inc(C.REDUCE_INPUT_GROUPS, groups)
            self.counters.inc(C.REDUCE_OUTPUT_RECORDS, len(output))
            reduce_span.set_cost(max(1, n_in))
            reduce_span.set(records=n_in, groups=groups, out_records=len(output))
        self._merger.cleanup()
        return output


_PARTITION_KEY = itemgetter(0, 1)


class _PipelinedMapTask:
    """Map task that sorts mini-segments and hands them to an emit router.

    The task itself is a pure function of its input: every sorted partition
    piece goes to ``emit(partition, pairs, nbytes)``.  Whether a piece is
    pushed to a live reducer, staged under backpressure, or buffered until a
    fault-plan attempt survives is the router's business — which is what
    lets the whole task run on a worker process while the coordinator keeps
    all scheduling decisions.
    """

    def __init__(
        self,
        job: MapReduceJob,
        task_id: int,
        node: str,
        disk: LocalDisk,
        hop: HOPConfig,
        emit: Callable[[int, list[tuple[Any, Any]], int], None] | None,
        partitioner: Partitioner = hash_partitioner,
        tracer: Any = NULL_TRACER,
    ) -> None:
        self.job = job
        self.task_id = task_id
        self.node = node
        self.disk = disk
        self.hop = hop
        self.emit = emit
        self.partitioner = partitioner
        self.counters = Counters()
        self.tracer = tracer
        self._task = f"map:{task_id:05d}"
        self.num_partitions = job.config.num_reducers
        self._partitions = KeyPartitions(partitioner, self.num_partitions)
        #: Pairs collected since the last emit: a flat ``(partition, key,
        #: value)`` chunk on the tuple path, per-partition buckets on the
        #: batch path (fan-out at append time, per-bucket sorts per chunk).
        self._chunk: list[tuple[int, Any, Any]] = []
        self._buckets: list[list[tuple[Any, Any]]] | None = None
        if job.config.batch:
            self._buckets = [[] for _ in range(self.num_partitions)]
        self._pending = 0

    def run(self, records: Iterable[Any], *, input_bytes: int = 0) -> None:
        counters = self.counters
        counters.inc(C.MAP_TASKS)
        counters.inc(C.MAP_INPUT_BYTES, input_bytes)
        with self.tracer.span(
            "map", "map", node=self.node, task=self._task
        ) as map_span:
            n_in = 0
            for pairs, ends in map_slices(records, self.job.map_fn, counters):
                n_in += len(ends)
                self.add_block(pairs, ends)
            self._emit_pending()
            map_span.set_cost(max(1, n_in))
            map_span.set(records=n_in, bytes=input_bytes)

    def add_block(self, pairs: list[tuple[Any, Any]], ends: list[int]) -> None:
        """The collect loop: one slice of map output into mini-chunks.

        ``ends`` holds each input record's end offset in ``pairs``.  A
        chunk is emitted at the first input-record boundary where the
        pending pairs reach the granularity, so chunk boundaries do not
        depend on how the input is cut into slices.
        """
        granularity = self.hop.granularity_records
        start = 0
        for end in ends:
            if self._pending + end - start >= granularity:
                self._collect(pairs[start:end])
                self._emit_pending()
                start = end
        self._collect(pairs[start:])
        self.counters.inc(C.MAP_OUTPUT_RECORDS, len(pairs))

    def _collect(self, pairs: list[tuple[Any, Any]]) -> None:
        partitioner = self.partitioner
        num_partitions = self.num_partitions
        memo = self._partitions
        buckets = self._buckets
        if buckets is None:
            append = self._chunk.append
            for key, value in pairs:
                t = type(key)
                p = memo[key] if t is str or t is int else partitioner(key, num_partitions)
                append((p, key, value))
        else:
            for key, value in pairs:
                t = type(key)
                p = memo[key] if t is str or t is int else partitioner(key, num_partitions)
                buckets[p].append((key, value))
        self._pending += len(pairs)

    def _emit_pending(self) -> None:
        if not self._pending:
            return
        if self._buckets is None:
            chunk, self._chunk = self._chunk, []
            self._emit_chunk(chunk)
        else:
            buckets = self._buckets
            self._buckets = [[] for _ in range(self.num_partitions)]
            self._emit_buckets(buckets, self._pending)
        self._pending = 0

    def _emit_chunk(self, chunk: list[tuple[int, Any, Any]]) -> None:
        """Sort one mini-chunk and emit its partition pieces in order."""
        with self.tracer.span(
            "sort",
            "sort",
            node=self.node,
            task=self._task,
            cost=max(1, len(chunk)),
            records=len(chunk),
        ):
            with self.counters.timer(C.T_SORT):
                chunk.sort(key=_PARTITION_KEY)
        self.counters.inc(C.SORT_RECORDS, len(chunk))

        if self.job.has_combiner and self.job.config.combine_on_spill:
            chunk = self._combine(chunk)

        start = 0
        n = len(chunk)
        while start < n:
            partition = chunk[start][0]
            end = start
            while end < n and chunk[end][0] == partition:
                end += 1
            pairs = [(k, v) for _, k, v in chunk[start:end]]
            nbytes = 48 * len(pairs) + 64  # framed-size proxy for transport
            self.emit(partition, pairs, nbytes)
            start = end

    def _combine(self, chunk: list[tuple[int, Any, Any]]) -> list[tuple[int, Any, Any]]:
        combine_fn = self.job.combine_fn
        assert combine_fn is not None
        out: list[tuple[int, Any, Any]] = []
        with self.tracer.span(
            "combine",
            "combine",
            node=self.node,
            task=self._task,
            cost=max(1, len(chunk)),
        ) as comb_span:
            with self.counters.timer(C.T_COMBINE):
                i = 0
                n = len(chunk)
                while i < n:
                    partition, key = chunk[i][0], chunk[i][1]
                    values = []
                    while i < n and chunk[i][0] == partition and chunk[i][1] == key:
                        values.append(chunk[i][2])
                        i += 1
                    self.counters.inc(C.COMBINE_INPUT_RECORDS, len(values))
                    for k, v in combine_fn(key, iter(values)):
                        out.append((partition, k, v))
                        self.counters.inc(C.COMBINE_OUTPUT_RECORDS)
            comb_span.set(records_in=len(chunk), records_out=len(out))
        return out

    def _emit_buckets(
        self, buckets: list[list[tuple[Any, Any]]], total: int
    ) -> None:
        """Batch twin of :meth:`_emit_chunk`: per-bucket sorts, same spans.

        One "sort" span covers all bucket sorts (cost and record count
        equal the tuple path's single chunk sort); emission walks buckets
        in ascending partition order, which is the order the tuple path's
        ``(partition, key)``-sorted chunk yields its partition slices.
        """
        with self.tracer.span(
            "sort",
            "sort",
            node=self.node,
            task=self._task,
            cost=max(1, total),
            records=total,
        ):
            with self.counters.timer(C.T_SORT):
                for bucket in buckets:
                    if bucket:
                        sort_bucket(bucket)
        self.counters.inc(C.SORT_RECORDS, total)

        if self.job.has_combiner and self.job.config.combine_on_spill:
            buckets = self._combine_buckets(buckets, total)

        for partition, pairs in enumerate(buckets):
            if not pairs:
                continue
            nbytes = 48 * len(pairs) + 64  # framed-size proxy for transport
            self.emit(partition, pairs, nbytes)

    def _combine_buckets(
        self, buckets: list[list[tuple[Any, Any]]], total: int
    ) -> list[list[tuple[Any, Any]]]:
        combine_fn = self.job.combine_fn
        assert combine_fn is not None
        out_buckets: list[list[tuple[Any, Any]]] = []
        total_out = 0
        with self.tracer.span(
            "combine",
            "combine",
            node=self.node,
            task=self._task,
            cost=max(1, total),
        ) as comb_span:
            with self.counters.timer(C.T_COMBINE):
                for bucket in buckets:
                    out: list[tuple[Any, Any]] = []
                    i = 0
                    n = len(bucket)
                    while i < n:
                        key = bucket[i][0]
                        values = []
                        while i < n and bucket[i][0] == key:
                            values.append(bucket[i][1])
                            i += 1
                        self.counters.inc(C.COMBINE_INPUT_RECORDS, len(values))
                        for k, v in combine_fn(key, iter(values)):
                            out.append((k, v))
                            self.counters.inc(C.COMBINE_OUTPUT_RECORDS)
                    out_buckets.append(out)
                    total_out += len(out)
            comb_span.set(records_in=total, records_out=total_out)
        return out_buckets

class _FrozenStageRouter:
    """Fault-path emit router: buffer everything, stage by frozen backlogs.

    With a fault plan, a map attempt must not push directly: a killed
    attempt's chunks would be unrecallable, and observing *live* reducer
    state would leak coordinator state into the worker.  The router makes
    backpressure decisions against backlog sizes frozen at attempt start,
    stages over-pressure chunks on the task's (shadow) disk, and exposes
    everything in :attr:`delivered` — pushes in emit order, then drained
    staged chunks — for the coordinator to log and deliver after the
    attempt survives.
    """

    def __init__(
        self,
        task_id: int,
        disk: LocalDisk,
        counters: Counters,
        backpressure_bytes: int,
        frozen_backlogs: dict[int, int],
    ) -> None:
        self.task_id = task_id
        self.disk = disk
        self.counters = counters
        self.backpressure_bytes = backpressure_bytes
        self.frozen_backlogs = frozen_backlogs
        self.delivered: dict[int, list[tuple[list[tuple[Any, Any]], int]]] = {
            p: [] for p in sorted(frozen_backlogs)
        }
        self._staged: list[tuple[int, str, int]] = []  # (partition, path, nbytes)
        self._seq = 0

    def emit(self, partition: int, pairs: list[tuple[Any, Any]], nbytes: int) -> None:
        if self.frozen_backlogs[partition] >= self.backpressure_bytes:
            path = f"hop-stage/{self.task_id:05d}/c{self._seq:05d}-p{partition:03d}"
            self._seq += 1
            written = write_run(self.disk, path, pairs)
            self.counters.inc(C.MAP_SPILL_BYTES, written)
            self._staged.append((partition, path, written))
        else:
            self.delivered[partition].append((pairs, nbytes))

    def drain(self) -> None:
        """Re-read staged chunks (in stage order) into the delivery lists."""
        for partition, path, nbytes in self._staged:
            pairs = list(stream_run(self.disk, path))
            self.delivered[partition].append((pairs, nbytes))
            self.disk.delete(path)
        self._staged.clear()


class HOPEngine(PushShuffleDriver):
    """MapReduce Online: pipelined sort-merge with periodic snapshots.

    On Table III's axes: sort-merge group-by, *push* shuffle (sorted
    mini-segments go to the reducers as maps complete, staged on the
    mapper's disk under backpressure), blocking reduce — plus snapshots
    that re-merge everything received so far.

    With a ``fault_plan``, pushes are buffered per map attempt and, on
    success, appended to the replicated delivery log (see
    :class:`~repro.mapreduce.driver.PushShuffleDriver`) before delivery —
    the durability a push architecture needs because map output never
    stays at the mappers.
    """

    name = "hop"
    map_kernel = "hop_map"
    reduce_namespace = "hop-reduce"

    def __init__(
        self,
        cluster: LocalCluster,
        *,
        hop_config: HOPConfig | None = None,
        map_slots: int = 2,
        fault_plan: FaultPlan | None = None,
        speculation: SpeculationPolicy | None = None,
        executor: Any = None,
        tracer: Any = None,
        journal: Any = None,
    ) -> None:
        super().__init__(
            cluster,
            map_slots=map_slots,
            fault_plan=fault_plan,
            speculation=speculation,
            executor=executor,
            tracer=tracer,
            journal=journal,
        )
        self.hop = hop_config or HOPConfig()

    def _kernel_context(self) -> dict[str, Any]:
        return {"hop": self.hop}

    def _open(self, run: JobRun) -> None:
        super()._open(run)
        run.next_snapshot = 0

    # -- map side: push now (clean) or buffer until the attempt survives --------

    def _map_spec(self, run: JobRun, task_id: int, node: str, data: bytes) -> Any:
        from repro.exec.kernels import HopMapSpec

        disk = self._disk(node)
        frozen = None
        if self.fault_plan is not None:
            frozen = {p: rt.backlog_bytes for p, rt in run.reduce_tasks.items()}
        return HopMapSpec(task_id, node, data, disk.profile, disk.name, frozen)

    def _commit_map(self, run: JobRun, task_id: int, node: str, res: Any) -> int:
        if res.by_partition is None:
            chunks = [c for c in res.chunks if c[0] not in run.committed]
            self._deliver_live(run, task_id, node, chunks)
            return sum(c[2] for c in chunks)
        delivered_bytes = 0
        for partition in sorted(res.by_partition):
            if partition in run.committed:
                continue  # journaled output; the reducer never runs
            for pairs, nbytes in res.by_partition[partition]:
                run.counters.inc(C.STAGED_OUTPUT_BYTES, nbytes)
                run.logs[partition].append(pairs, nbytes)
                run.reduce_tasks[partition].accept_chunk(pairs, nbytes)
                delivered_bytes += nbytes
        return delivered_bytes

    def _deliver_live(
        self,
        run: JobRun,
        task_id: int,
        node: str,
        chunks: list[tuple[int, list[tuple[Any, Any]], int]],
    ) -> None:
        """Replay one live map task's emissions against real reducer state.

        The worker returned the ordered emission stream; pushing versus
        staging depends on live backlogs (which earlier deliveries mutate),
        so the decision — and the staging I/O on the mapper's real disk —
        happens here, in deterministic task order.
        """
        disk = self._disk(node)
        reduce_tasks = run.reduce_tasks
        chunk_hist = self.tracer.metrics.histogram("push.chunk.bytes")
        with self.tracer.span(
            "push",
            "shuffle",
            node=node,
            task=f"map:{task_id:05d}",
            partitions=sorted({p for p, _, _ in chunks}),
        ) as push_span:
            staged: list[tuple[int, str, int]] = []
            seq = 0
            pushed_bytes = 0
            for partition, pairs, nbytes in chunks:
                chunk_hist.observe(nbytes)
                reducer = reduce_tasks[partition]
                if reducer.backlog_bytes >= self.hop.backpressure_bytes:
                    path = f"hop-stage/{task_id:05d}/c{seq:05d}-p{partition:03d}"
                    seq += 1
                    written = write_run(disk, path, pairs)
                    run.counters.inc(C.MAP_SPILL_BYTES, written)
                    staged.append((partition, path, written))
                else:
                    pushed_bytes += nbytes
                    reducer.accept_chunk(pairs, nbytes)
            # Staged chunks are delivered once the task finishes (reducers
            # caught up), at their on-disk framed size.
            staged_bytes = 0
            for partition, path, written in staged:
                pairs = list(stream_run(disk, path))
                staged_bytes += written
                reduce_tasks[partition].accept_chunk(pairs, written)
                disk.delete(path)
            push_span.set_cost(byte_cost(pushed_bytes + staged_bytes))
            push_span.set(bytes_pushed=pushed_bytes, bytes_staged=staged_bytes)

    def _after_map_commit(self, run: JobRun, completed: int, last: bool) -> None:
        """Take every snapshot whose map-completion fraction is now reached."""
        fractions = self.hop.snapshot_fractions
        fraction = completed / len(run.splits)
        while run.next_snapshot < len(fractions) and fraction >= fractions[run.next_snapshot]:
            target = fractions[run.next_snapshot]
            merged: list[Any] = []
            for rtask in run.reduce_tasks.values():
                merged.extend(rtask.snapshot(target).records)
            run.snapshots.append(Snapshot(fraction=target, records=tuple(merged)))
            run.next_snapshot += 1

    # -- reduce side: blocking final merge ---------------------------------------

    def _new_reduce_task(self, run: JobRun, partition: int, node: str) -> Any:
        disk = self._disk(node)
        return PipelinedReduceTask(
            run.job, partition, node, disk, self.hop, tracer=self.tracer
        )

    def _finish_reduce(self, run: JobRun, partition: int) -> list[Any]:
        return run.reduce_tasks[partition].run()

    def _close(self, run: JobRun) -> None:
        super()._close(run)
        run.network_bytes += int(run.counters[C.SHUFFLE_BYTES])
