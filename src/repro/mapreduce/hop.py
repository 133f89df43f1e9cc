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
   The re-read is checked, not decoded: until the last snapshot a reducer
   holds the decoded pairs of each run it spilled, and merges those.

Crucially, HOP keeps the sort-merge group-by, so the blocking final merge
and its multi-pass I/O remain — the paper's central observation.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import pairwise
from typing import Any, Callable, Iterable

from repro.io.batch import merge_segments
from repro.io.runio import reread_run, write_run
from repro.mapreduce.api import MapReduceJob
from repro.mapreduce.counters import C, Counters
from repro.mapreduce.driver import JobRun, PushShuffleDriver
from repro.mapreduce.faults import FaultPlan
from repro.mapreduce.merge import group_sorted
from repro.mapreduce.partition import KeyPartitions, hash_partitioner
from repro.mapreduce.recovery import SpeculationPolicy
from repro.mapreduce.runtime import LocalCluster
from repro.mapreduce.sortmerge import SortMergeReduceTask, _SortingBuffer
from repro.obs.tracer import NULL_TRACER, byte_cost

__all__ = ["HOPConfig", "Snapshot", "take_snapshot", "HOPEngine"]


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
        if any(a >= b for a, b in pairwise(self.snapshot_fractions)):
            raise ValueError("snapshot fractions must be strictly increasing")


@dataclass(frozen=True, slots=True)
class Snapshot:
    """One early answer: input fraction seen and the reduce output."""

    fraction: float
    records: tuple[Any, ...]


def take_snapshot(rtask: SortMergeReduceTask, fraction: float) -> Snapshot:
    """Repeat merge + reduce over all data ``rtask`` received so far.

    On-disk runs are re-read (accounted) and checked, and the pairs held
    for them merged with the in-memory segments; nothing is consumed, so the
    final merge still happens later — this duplication is HOP's overhead.
    """
    counters, disk, tracer = rtask.counters, rtask.disk, rtask.tracer
    counters.inc(C.SNAPSHOTS)
    memory, _, (runs, _) = rtask.export_ingested()
    task = f"reduce:{rtask.partition:03d}"
    with tracer.span("snapshot", "snapshot", node=rtask.node, task=task, fraction=fraction) as span:
        segments: list[Iterable[tuple[Any, Any]]] = list(memory)
        for path, nbytes in runs:
            pairs = rtask.run_pairs[path]
            reread_run(disk, path, len(pairs))
            segments.append(pairs)
            counters.inc(C.MERGE_READ_BYTES, nbytes)
        with counters.timer(C.T_MERGE):
            merged = merge_segments(segments)
        output: list[Any] = []
        with counters.timer(C.T_REDUCE_FN):
            for key, values in group_sorted(iter(merged)):
                output.extend(rtask.job.reduce_fn(key, values))
        span.set_cost(max(1, len(merged)))
        span.set(records=len(merged), out_records=len(output))
    return Snapshot(fraction=fraction, records=tuple(output))


class _ChunkBuffer(_SortingBuffer):
    """HOP's map-side collect buffer: sorted mini-chunks handed to ``emit``.

    It touches no disk: every sorted partition piece goes to
    ``emit(partition, pairs, nbytes)``.  Whether a piece is pushed to a
    live reducer or staged under backpressure is decided by the
    coordinator, against live reducer state and only once the attempt has
    survived — which is what lets the whole task run on a worker process
    while the coordinator keeps all scheduling decisions.
    """

    def __init__(
        self,
        job: MapReduceJob,
        task_id: int,
        node: str,
        hop: HOPConfig,
        emit: Callable[[int, list[tuple[Any, Any]], int], None],
        counters: Counters,
        tracer: Any = NULL_TRACER,
    ) -> None:
        super().__init__(job, task_id, node, counters, tracer)
        self.hop = hop
        self.emit = emit
        self._partitions = KeyPartitions(self.num_partitions)
        #: Pairs collected since the last emit (in ``_buckets``).
        self._pending = 0

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
        num_partitions = self.num_partitions
        memo = self._partitions
        buckets = self._buckets
        for key, value in pairs:
            t = type(key)
            p = memo[key] if t is str or t is int else hash_partitioner(key, num_partitions)
            buckets[p].append((key, value))
        self._pending += len(pairs)

    def _emit_pending(self) -> None:
        """Sort and combine the pending mini-chunk; emit its partition
        pieces in ascending partition order."""
        total = self._pending
        if not total:
            return
        self._pending = 0
        for partition, pairs in enumerate(self._sort_and_combine(total)):
            if pairs:
                nbytes = 48 * len(pairs) + 64  # framed-size proxy for transport
                self.emit(partition, pairs, nbytes)

    finish = _emit_pending  # the task's end emits the last chunk


class HOPEngine(PushShuffleDriver):
    """MapReduce Online: pipelined sort-merge with periodic snapshots.

    On Table III's axes: sort-merge group-by, *push* shuffle (sorted
    mini-segments go to the reducers as maps complete, staged on the
    mapper's disk under backpressure), blocking reduce — plus snapshots
    that re-merge everything received so far.

    A map attempt's chunks are delivered only once the attempt has
    survived, so a killed attempt never reaches a reducer.  With a
    ``fault_plan`` each chunk is also appended to the replicated delivery
    log first (see :class:`~repro.mapreduce.driver.PushShuffleDriver`) —
    the durability a push architecture needs because map output never
    stays at the mappers.  The log is all a plan adds.
    """

    name = "hop"
    map_kernel = "hop_map"
    reduce_kernel = "hadoop_reduce"
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

    # -- map side: the surviving attempt's chunks, pushed or staged ---------------

    def _map_spec(self, run: JobRun, task_id: int, node: str, data: bytes) -> Any:
        from repro.exec.kernels import PushMapSpec

        return PushMapSpec(task_id, node, data)

    def _commit_map(self, run: JobRun, task_id: int, node: str, res: Any) -> int:
        """Replay one map task's emissions against real reducer state.

        The worker returned the ordered emission stream; pushing versus
        staging depends on live backlogs (which earlier deliveries mutate),
        so the decision — and the staging I/O on the mapper's real disk —
        happens here, in deterministic task order.
        """
        chunks = [c for c in res.chunks if c[0] not in run.committed]
        disk = self._disk(node)
        reduce_tasks = run.reduce_tasks
        with self.tracer.span(
            "push",
            "shuffle",
            node=node,
            task=f"map:{task_id:05d}",
            partitions=sorted({p for p, _, _ in chunks}),
            chunk_bytes=[nbytes for _, _, nbytes in chunks],
        ) as push_span:
            staged: list[tuple[int, list[tuple[Any, Any]], str, int]] = []
            pushed_bytes = 0
            for partition, pairs, nbytes in chunks:
                if reduce_tasks[partition].memory_bytes >= self.hop.backpressure_bytes:
                    path = f"hop-stage/{task_id:05d}/c{len(staged):05d}-p{partition:03d}"
                    written = write_run(disk, path, pairs)
                    run.counters.inc(C.MAP_SPILL_BYTES, written)
                    staged.append((partition, pairs, path, written))
                else:
                    pushed_bytes += nbytes
                    self._accept_chunk(run, partition, pairs, nbytes)
            # Staged chunks are delivered once the task finishes (reducers
            # caught up), at their on-disk framed size, re-read and checked.
            staged_bytes = 0
            for partition, pairs, path, written in staged:
                reread_run(disk, path, len(pairs))
                staged_bytes += written
                self._accept_chunk(run, partition, pairs, written)
                disk.delete(path)
            push_span.set_cost(byte_cost(pushed_bytes + staged_bytes))
            push_span.set(bytes_pushed=pushed_bytes, bytes_staged=staged_bytes)
        return sum(c[2] for c in chunks)

    def _after_map_commit(self, run: JobRun, completed: int) -> None:
        """Take every snapshot whose map-completion fraction is now reached."""
        fractions = self.hop.snapshot_fractions
        fraction = completed / len(run.splits)
        while run.next_snapshot < len(fractions) and fraction >= fractions[run.next_snapshot]:
            target = fractions[run.next_snapshot]
            merged: list[Any] = []
            for rtask in run.reduce_tasks.values():
                merged.extend(take_snapshot(rtask, target).records)
            run.snapshots.append(Snapshot(fraction=target, records=tuple(merged)))
            run.next_snapshot += 1
            if run.next_snapshot == len(fractions):  # no snapshot re-reads a run again
                for rtask in run.reduce_tasks.values():
                    rtask.hold_pairs(False)

    # -- reduce side: Hadoop's blocking reducer, never combining ------------------

    def _new_reduce_task(self, run: JobRun, partition: int, node: str) -> Any:
        disk, namespace = self._disk(node), self.reduce_namespace
        rtask = SortMergeReduceTask(
            run.job, partition, node, disk, tracer=self.tracer, namespace=namespace, combine=False
        )
        # It holds its runs' pairs while a snapshot is due (none is taken before _open).
        rtask.hold_pairs(getattr(run, "next_snapshot", 0) < len(self.hop.snapshot_fractions))
        return rtask

    def _close(self, run: JobRun) -> None:
        super()._close(run)
        run.network_bytes += int(run.counters[C.SHUFFLE_BYTES])
