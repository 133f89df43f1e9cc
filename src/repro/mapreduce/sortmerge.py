"""Sort-merge map and reduce tasks — the Hadoop baseline of the paper.

Map side (Fig. 1 of the paper): each map task reads one block, applies the
map function, partitions key-value pairs by reducer, and **sorts the output
buffer on the compound (partition, key)**.  A full buffer sorts and spills;
at task end the spills are merged into one sorted segment per partition.
The sorting step is the CPU cost the paper quantifies in Table II; the
final segment write is the synchronous map-output write of §III.B.2.

Reduce side: fetched segments accumulate through a
:class:`~repro.mapreduce.merge.MultiPassMerger`; after the last segment the
blocking final merge produces a single sorted run, which is grouped and fed
to the reduce function.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import groupby, islice
from operator import itemgetter
from typing import Any, Iterable, Iterator, Sequence

from repro.io.batch import merge_segments, sort_bucket
from repro.io.disk import LocalDisk
from repro.io.runio import Framed, KeyedRun, frame_records, segment_pairs, stream_frames
from repro.io.runio import stream_pieces, write_run
from repro.io.serialization import estimate_sizes
from repro.mapreduce.api import MapFn, MapReduceJob, MapSliceFn, SliceMapper
from repro.mapreduce.counters import C, Counters
from repro.mapreduce.merge import MultiPassMerger, group_sorted, merge_sorted, pair_pieces
from repro.mapreduce.partition import KeyFacts
from repro.obs.tracer import NULL_TRACER, byte_cost

__all__ = [
    "map_slices",
    "per_record",
    "run_map_task",
    "MapOutputSegment",
    "MapOutput",
    "SortMergeMapTask",
    "SortMergeReduceTask",
]

_RECORD_OVERHEAD = 32

#: Input records decoded and mapped per front-end slice: bounds the
#: transient pair list while amortising the timer reads and counter bumps.
MAP_SLICE_RECORDS = 256

_KEY = itemgetter(0)
_VALUE = itemgetter(1)

#: (path, nbytes, records, sorted keys) of one partition's piece of a spill.
_SpillSegment = tuple[str, int, int, list[Any]]

#: An in-memory reduce-side segment: a fetched run, or pairs as pushed.
Segment = KeyedRun | list[tuple[Any, Any]]


def per_record(map_fn: MapFn) -> MapSliceFn:
    """The per-record loop over ``map_fn``: the slice form of a map function
    that is not a :class:`~repro.mapreduce.api.SliceMapper`."""

    def map_slice(records: list[Any]) -> tuple[list[tuple[Any, Any]], list[int]]:
        pairs: list[tuple[Any, Any]] = []
        ends: list[int] = []
        for record in records:
            pairs += map_fn(record)
            ends.append(len(pairs))
        return pairs, ends

    return map_slice


def map_slices(
    records: Iterable[Any], map_slice: MapSliceFn, counters: Counters
) -> Iterator[tuple[list[tuple[Any, Any]], Sequence[int]]]:
    """The map front-end of all three engines: decode → map, slice by slice.

    Pulls up to :data:`MAP_SLICE_RECORDS` records from ``records`` (a lazy
    decode, so the pull *is* the parse), runs ``map_slice`` over them once
    and yields its ``(pairs, ends)``: the slice's map output in order and,
    per input record, the end offset of its output in ``pairs`` (HOP cuts
    chunks on input-record boundaries).  Parse and map-function time are
    charged once per slice.
    """
    perf = time.perf_counter
    it = iter(records)
    while True:
        t0 = perf()
        chunk = list(islice(it, MAP_SLICE_RECORDS))
        t1 = perf()
        pairs, ends = map_slice(chunk)
        counters.inc(C.T_PARSE, t1 - t0)
        counters.inc(C.T_MAP_FN, perf() - t1)
        counters.inc(C.MAP_INPUT_RECORDS, len(chunk))
        if not chunk:
            return
        yield pairs, ends


def run_map_task(
    job: MapReduceJob,
    task_id: int,
    node: str,
    records: Iterable[Any],
    buffer: Any,
    counters: Counters,
    *,
    input_bytes: int = 0,
    tracer: Any = NULL_TRACER,
    timer: str | None = None,
) -> Any:
    """One map task under any engine: decode → map → collect, then finish.

    ``buffer`` is the engine's collect buffer: it takes each slice as
    ``add_block(pairs, ends)`` and returns the task's output from
    ``finish()``, which this returns.  With a ``timer`` counter name the
    buffer's wall time is charged to it after the task's ``"map"`` span.
    """
    counters.inc(C.MAP_TASKS)
    counters.inc(C.MAP_INPUT_BYTES, input_bytes)
    map_fn = job.map_fn
    map_slice = map_fn.map_slice if type(map_fn) is SliceMapper else per_record(map_fn)
    perf = time.perf_counter
    t_collect = 0.0
    n_in = 0
    with tracer.span("map", "map", node=node, task=f"map:{task_id:05d}") as map_span:
        for pairs, ends in map_slices(records, map_slice, counters):
            n_in += len(ends)
            t0 = perf()
            buffer.add_block(pairs, ends)
            t_collect += perf() - t0
        t0 = perf()
        output = buffer.finish()
        t_collect += perf() - t0
        map_span.set_cost(max(1, n_in))
        map_span.set(records=n_in, bytes=input_bytes)
    if timer:
        counters.inc(timer, t_collect)
    return output


@dataclass(frozen=True, slots=True)
class MapOutputSegment:
    """One partition's sorted segment of one map task's output."""

    path: str
    nbytes: int
    records: int
    #: The sorted keys of the segment's frames, kept by the map task that
    #: wrote them: the fetch hands them on and then drops them.
    keys: list[Any] | None = field(default=None, repr=False, compare=False)


@dataclass(slots=True)
class MapOutput:
    """Everything a completed map task leaves behind for the shuffle."""

    task_id: int
    node: str
    segments: dict[int, MapOutputSegment] = field(default_factory=dict)

    @property
    def total_bytes(self) -> int:
        return sum(s.nbytes for s in self.segments.values())

    @property
    def total_records(self) -> int:
        return sum(s.records for s in self.segments.values())


class _SortingBuffer:
    """What Hadoop's spill buffer and HOP's chunk buffer share: one map
    task's pairs, fanned out into one bucket per partition *at add time*,
    then sorted and combined a spill (or a chunk) at a time.

    The partition never rides along as a tuple element or is compared
    during sorting.  Each bucket is stably sorted by key alone
    (:func:`repro.io.batch.sort_bucket`); the sorted buckets in ascending
    partition order are the record sequence a stable sort on the compound
    ``(partition, key)`` yields, which is Hadoop's map-output order.
    """

    def __init__(
        self, job: MapReduceJob, task_id: int, node: str, counters: Counters, tracer: Any
    ) -> None:
        self.job = job
        self.task_id = task_id
        self.node = node
        self.counters = counters
        self.tracer = tracer
        self._task = f"map:{task_id:05d}"
        self.num_partitions = job.config.num_reducers
        self._combining = job.has_combiner
        self._buckets: list[list[tuple[Any, Any]]] = [
            [] for _ in range(self.num_partitions)
        ]

    def _sort_and_combine(self, total: int) -> list[list[tuple[Any, Any]]]:
        """Take the ``total`` pairs collected so far, sort each bucket by
        key (one ``"sort"`` span) and, if the job combines on spill, run
        its combiner over each sorted bucket's equal-key runs (one
        ``"combine"`` span; every record is some group's input)."""
        buckets = self._buckets
        self._buckets = [[] for _ in range(self.num_partitions)]
        counters, tracer, node, task = self.counters, self.tracer, self.node, self._task
        with tracer.span("sort", "sort", node=node, task=task, cost=total, records=total):
            with counters.timer(C.T_SORT):
                for bucket in buckets:
                    if bucket:
                        sort_bucket(bucket)
        counters.inc(C.SORT_RECORDS, total)
        if not self._combining:
            return buckets
        combine_fn = self.job.combine_fn
        assert combine_fn is not None
        out_buckets: list[list[tuple[Any, Any]]] = []
        total_out = 0
        with tracer.span(
            "combine", "combine", node=node, task=task, cost=total
        ) as combine_span, counters.timer(C.T_COMBINE):
            for pairs in buckets:
                out: list[tuple[Any, Any]] = []
                for key, group in groupby(pairs, _KEY):
                    out += combine_fn(key, map(_VALUE, group))
                out_buckets.append(out)
                total_out += len(out)
            counters.inc(C.COMBINE_INPUT_RECORDS, total)
            if total_out:
                counters.inc(C.COMBINE_OUTPUT_RECORDS, total_out)
            combine_span.set(records_in=total, records_out=total_out)
        return out_buckets


class _SortSpillBuffer(_SortingBuffer):
    """Map-side output buffer with Hadoop's sort-and-spill behaviour: a
    full buffer sorts, combines and spills; :meth:`finish` merges the
    spills into one sorted segment per partition."""

    def __init__(
        self,
        job: MapReduceJob,
        disk: LocalDisk,
        task_id: int,
        counters: Counters,
        *,
        tracer: Any = NULL_TRACER,
        node: str = "",
    ) -> None:
        super().__init__(job, task_id, node, counters, tracer)
        self.disk = disk
        self.buffer_bytes = job.config.map_buffer_bytes
        self._facts = KeyFacts(self.num_partitions, _RECORD_OVERHEAD)
        self._bytes = 0
        self._spill_seq = 0
        # spill_segments[s][p] -> (path, nbytes, records, sorted keys); the
        # keys stay for the life of the task so that the multi-spill merge
        # orders frames without unpickling them, and a lone spill's keys
        # go to the shuffle with its segments.
        self.spill_segments: list[dict[int, _SpillSegment]] = []

    def add_block(
        self, pairs: Sequence[tuple[Any, Any]], ends: Sequence[int] | None = None
    ) -> None:
        """The collect loop: bucket ``pairs``, spilling at the byte budget.

        The budget is checked after every pair, so spill points do not
        depend on how the stream is cut into blocks (nor on ``ends``, the
        input-record boundaries only HOP cuts on); values are sized a
        block at a time.
        """
        facts = self._facts
        budget = self.buffer_bytes
        buckets = self._buckets
        used = self._bytes
        for (key, value), value_bytes in zip(pairs, estimate_sizes(list(map(_VALUE, pairs)))):
            t = type(key)
            partition, key_bytes = facts[key] if t is str or t is int else facts.of(key)
            buckets[partition].append((key, value))
            used += key_bytes + value_bytes
            if used >= budget:
                self.spill()
                buckets = self._buckets
                used = 0
        self._bytes = used
        self.counters.inc(C.MAP_OUTPUT_RECORDS, len(pairs))

    def spill(self) -> None:
        """Sort each bucket by key, combine, write one spill."""
        total = sum(len(bucket) for bucket in self._buckets)
        if not total:
            return
        self._bytes = 0
        buckets = self._sort_and_combine(total)
        segments: dict[int, _SpillSegment] = {}
        spill_bytes = 0
        with self.tracer.span(
            "spill", "spill", node=self.node, task=self._task
        ) as spill_span:
            for partition, pairs in enumerate(buckets):
                if pairs:
                    spill_bytes += self._write_segment(segments, partition, pairs)
            spill_span.set(bytes=spill_bytes, segments=len(segments))
            spill_span.set_cost(byte_cost(spill_bytes))
        self.spill_segments.append(segments)
        self.counters.inc(C.MAP_SPILLS)
        self._spill_seq += 1

    def _write_segment(
        self, segments: dict[int, _SpillSegment], partition: int, pairs: list[tuple[Any, Any]]
    ) -> int:
        """Write one partition's sorted pairs of this spill; return the bytes."""
        path = f"mapspill/{self.task_id:05d}/s{self._spill_seq:03d}-p{partition:03d}"
        keys: list[Any] = []
        nbytes = write_run(self.disk, path, pairs, keys)
        segments[partition] = (path, nbytes, len(pairs), keys)
        self.counters.inc(C.MAP_SPILL_BYTES, nbytes)
        return nbytes

    def finish(self) -> dict[int, MapOutputSegment]:
        """Flush the last buffer and merge spills into final segments.

        A single spill's segments *are* the final output (no extra I/O), as
        in a well-tuned Hadoop job; multiple spills pay a per-partition
        merge read+write.
        """
        self.spill()
        if not self.spill_segments:
            return {}
        if len(self.spill_segments) == 1:
            final: dict[int, MapOutputSegment] = {}
            for partition, (path, nbytes, records, keys) in self.spill_segments[0].items():
                out_path = f"mapout/{self.task_id:05d}/p{partition:03d}"
                self.disk.rename(path, out_path)
                final[partition] = MapOutputSegment(out_path, nbytes, records, keys)
                self.counters.inc(C.MAP_OUTPUT_BYTES, nbytes)
            return final

        final = {}
        partitions = sorted({p for seg in self.spill_segments for p in seg})
        read_total = 0
        write_total = 0
        with self.tracer.span(
            "merge", "merge", node=self.node, task=self._task
        ) as merge_span, self.counters.timer(C.T_MERGE):
            for partition in partitions:
                sources = [
                    seg[partition] for seg in self.spill_segments if partition in seg
                ]
                read_bytes = sum(nbytes for _, nbytes, _, _ in sources)
                self.counters.inc(C.MERGE_READ_BYTES, read_bytes)
                read_total += read_bytes
                out_path = f"mapout/{self.task_id:05d}/p{partition:03d}"
                keys: list[Any] = []
                if self._combining:
                    # New pairs: decode, combine, encode; every record read
                    # is combiner input, every record written its output.
                    combine = self.job.combine_fn
                    merged = merge_sorted(
                        [pair_pieces(stream_pieces(self.disk, path)) for path, _, _, _ in sources]
                    )
                    combined = (p for k, vs in group_sorted(merged) for p in combine(k, vs))
                    nbytes = write_run(self.disk, out_path, combined, keys)
                    self.counters.inc(C.COMBINE_INPUT_RECORDS, sum(r for _, _, r, _ in sources))
                    if keys:
                        self.counters.inc(C.COMBINE_OUTPUT_RECORDS, len(keys))
                else:
                    # Unchanged records: their frames move, ordered by the kept keys.
                    streams = [stream_frames(self.disk, path, k) for path, _, _, k in sources]
                    nbytes = write_run(self.disk, out_path, Framed(merge_sorted(streams, keys), keys))
                for path, _, _, _ in sources:
                    self.disk.delete(path)
                final[partition] = MapOutputSegment(out_path, nbytes, len(keys), keys)
                self.counters.inc(C.MAP_OUTPUT_BYTES, nbytes)
                self.counters.inc(C.MERGE_WRITE_BYTES, nbytes)
                write_total += nbytes
            merge_span.set(
                bytes_in=read_total, bytes_out=write_total, spills=len(self.spill_segments)
            )
            merge_span.set_cost(byte_cost(read_total + write_total))
        return final


class SortMergeMapTask:
    """Executes one map task over one input split (one HDFS block)."""

    def __init__(
        self,
        job: MapReduceJob,
        task_id: int,
        node: str,
        disk: LocalDisk,
        *,
        tracer: Any = NULL_TRACER,
    ) -> None:
        self.job = job
        self.task_id = task_id
        self.node = node
        self.disk = disk
        self.counters = Counters()
        self.tracer = tracer

    def run(self, records: Iterable[Any], *, input_bytes: int = 0) -> MapOutput:
        """Apply the map function to every record; sort, spill, finalise."""
        buffer = _SortSpillBuffer(
            self.job, self.disk, self.task_id, self.counters, tracer=self.tracer, node=self.node
        )
        segments = run_map_task(
            self.job, self.task_id, self.node, records, buffer, self.counters,
            input_bytes=input_bytes, tracer=self.tracer,
        )  # fmt: skip
        return MapOutput(task_id=self.task_id, node=self.node, segments=segments)


class SortMergeReduceTask:
    """Executes one reduce task: multi-pass merge, then grouped reduce.

    The one sort-merge reducer of Hadoop and HOP.  The two differ in data
    only: the disk ``namespace`` of the task's merge runs, and whether its
    in-memory merge may ``combine`` (HOP's never does).
    """

    def __init__(
        self,
        job: MapReduceJob,
        partition: int,
        node: str,
        disk: LocalDisk,
        *,
        tracer: Any = NULL_TRACER,
        namespace: str = "reduce",
        combine: bool = True,
    ) -> None:
        self.job = job
        self.partition = partition
        self.node = node
        self.disk = disk
        self.counters = Counters()
        self.tracer = tracer
        self.namespace = namespace
        self.combining = combine and job.has_combiner
        self._task = f"reduce:{partition:03d}"
        self._merger = MultiPassMerger(
            disk,
            f"{namespace}/{partition:03d}",
            factor=job.config.merge_factor,
            counters=self.counters,
            tracer=tracer,
            node=node,
            task=self._task,
        )
        self._memory: list[Segment] = []
        self.memory_bytes = 0

    # -- shuffle ingestion -----------------------------------------------------

    def accept_segment(self, segment: Segment, nbytes: int) -> None:
        """Receive one fetched (already sorted) map-output segment.

        A fetch delivers a :class:`~repro.io.runio.KeyedRun`; a pushed chunk
        or a caller's own list of pairs is accepted as it is.  Segments
        buffer in memory; when the reduce buffer fills, the in-memory
        segments are merged into one sorted run and spilled into the
        multi-pass merger (Hadoop's in-memory merge).
        """
        self._memory.append(segment)
        self.memory_bytes += nbytes
        self.counters.inc(C.SHUFFLE_BYTES, nbytes)
        if self.memory_bytes >= self.job.config.reduce_buffer_bytes:
            self._spill_memory()

    def _spill_memory(self) -> None:
        if not self._memory:
            return
        nbytes = self.memory_bytes
        segments, self._memory = self._memory, []
        self.memory_bytes = 0
        with self.tracer.span(
            "spill",
            "spill",
            node=self.node,
            task=self._task,
            cost=byte_cost(nbytes),
            bytes=nbytes,
            segments=len(segments),
        ):
            self._merger.add_run(self._spill_run(segments))

    def _spill_run(self, segments: list[Segment]) -> Any:
        """The sorted run one in-memory merge spills: combined or merged
        pushed pairs (a list the merger may hold), or framed.

        Either way the order is a k-way merge's with a stream-order
        tie-break: arrival order breaks ties between equal keys.
        """
        if self.combining:
            pairs = merge_segments(map(segment_pairs, segments))
            return _combine_sorted(self.job, pairs, self.counters)
        if not any(isinstance(s, KeyedRun) for s in segments):
            return merge_segments(segments)  # pushed pairs, as they are
        # The spill only moves the records: merge their frames by the keys
        # the fetch carried along.
        keys: list[Any] = []
        return Framed(merge_sorted([[frame_records(s)] for s in segments], keys), keys)

    # -- state transfer (parallel execution) -------------------------------------

    def export_ingested(
        self,
    ) -> tuple[list[Segment], int, tuple[list[tuple[str, int]], int]]:
        """Hand the ingestion-phase state to a worker-side task.

        Returns ``(memory segments, memory bytes, merger state)``; together
        with the merger's run files (and, to spare its passes a decode,
        :attr:`run_keys`) this is everything :meth:`run` needs.
        """
        return self._memory, self.memory_bytes, self._merger.export_state()

    @property
    def run_keys(self) -> dict[str, list[Any]]:
        return self._merger.run_keys

    @property
    def run_pairs(self) -> dict[str, list[tuple[Any, Any]]] | None:
        return self._merger.run_pairs

    def hold_pairs(self, hold: bool) -> None:
        """Keep each run's pairs (call before the first spill), or drop all kept."""
        self._merger.run_pairs = {} if hold else None

    def adopt_ingested(
        self,
        memory: list[Segment],
        memory_bytes: int,
        merger_state: tuple[list[tuple[str, int]], int],
        run_keys: dict[str, list[Any]] | None = None,
    ) -> None:
        """Install ingestion-phase state exported by :meth:`export_ingested`."""
        self._memory = memory
        self.memory_bytes = memory_bytes
        self._merger.adopt_state(merger_state, run_keys)

    # -- reduce ------------------------------------------------------------------

    def run(self) -> tuple[list[Any], int]:
        """Blocking final merge + reduce; returns (output records, groups)."""
        counters = self.counters
        counters.inc(C.REDUCE_TASKS)
        with self.tracer.span(
            "reduce", "reduce", node=self.node, task=self._task
        ) as reduce_span:
            if self._merger.run_count == 0:
                # Everything fits in memory: final merge happens purely in RAM.
                stream: Iterable[tuple[Any, Any]] = merge_segments(
                    map(segment_pairs, self._memory)
                )
            else:
                self._spill_memory()
                stream = self._merger.final_merge()

            reduce_fn = self.job.reduce_fn
            output: list[Any] = []
            groups = 0
            n_in = 0
            perf = time.perf_counter
            t_reduce = 0.0
            for key, values in group_sorted(stream):
                groups += 1
                vals = list(values)
                n_in += len(vals)
                t0 = perf()
                output.extend(reduce_fn(key, iter(vals)))
                t_reduce += perf() - t0
            if n_in:
                counters.inc(C.REDUCE_INPUT_RECORDS, n_in)
            counters.inc(C.T_REDUCE_FN, t_reduce)
            counters.inc(C.REDUCE_INPUT_GROUPS, groups)
            counters.inc(C.REDUCE_OUTPUT_RECORDS, len(output))
            self._merger.cleanup()
            reduce_span.set_cost(max(1, n_in))
            reduce_span.set(records=n_in, groups=groups, out_records=len(output))
        return output, groups


def _combine_sorted(
    job: MapReduceJob,
    pairs: list[tuple[Any, Any]],
    counters: Counters,
) -> list[tuple[Any, Any]]:
    """Apply the job's combiner to a key-sorted list of pairs (reduce-side)."""
    combine_fn = job.combine_fn
    assert combine_fn is not None
    out: list[tuple[Any, Any]] = []
    if not pairs:
        return out
    counters.inc(C.COMBINE_INPUT_RECORDS, len(pairs))
    with counters.timer(C.T_COMBINE):
        for key, values in group_sorted(pairs):
            out += combine_fn(key, values)
    counters.inc(C.COMBINE_OUTPUT_RECORDS, len(out))
    return out
