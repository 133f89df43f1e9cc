"""Pure task kernels: the worker-side half of each engine's tasks.

Each kernel is a pure function of ``(context, spec)``:

* the *context* holds the per-job shared objects (job, codec, engine
  config) — inherited by reference (serial/threads) or by ``fork``
  (processes), never pickled;
* the *spec* is a small picklable descriptor carrying everything
  task-specific, including the raw input block bytes (read by the
  coordinator, where HDFS accounting lives);
* the *result* is picklable data plus ordered effect lists; the
  coordinator replays all effects (disk installs, shuffle registration,
  chunk delivery) in deterministic task order.

The sort-spill kernels' disk I/O runs against a *shadow*
:class:`~repro.io.disk.LocalDisk` with the real device's profile; the
coordinator absorbs the export, so files, byte counts and op accounting
match in-place execution exactly.  The push engines' map kernels share one
body and touch no disk: their one effect is the ordered chunk stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.exec.base import register_kernel
from repro.io.device import DeviceProfile
from repro.io.disk import DiskExport, LocalDisk
from repro.io.runio import KeyedRun
from repro.mapreduce.counters import C, Counters
from repro.mapreduce.sortmerge import (
    MapOutput,
    SortMergeMapTask,
    SortMergeReduceTask,
    run_map_task,
)
from repro.obs.tracer import task_tracer

__all__ = [
    "HadoopMapSpec",
    "HadoopMapResult",
    "HadoopReduceSpec",
    "HadoopReduceResult",
    "reduce_spec",
    "PushMapSpec",
    "PushMapResult",
    "OnePassMapSpec",
]


# -- Hadoop map ---------------------------------------------------------------


@dataclass(slots=True)
class HadoopMapSpec:
    task_id: int
    node: str
    data: bytes
    profile: DeviceProfile
    disk_name: str


@dataclass(slots=True)
class HadoopMapResult:
    output: MapOutput
    counters: Counters
    disk: DiskExport
    #: Task-local trace export (``None`` when tracing is off); the
    #: coordinator absorbs it in deterministic task order.
    trace: Any = None


def hadoop_map_kernel(ctx: dict[str, Any], spec: HadoopMapSpec) -> HadoopMapResult:
    """One sort-spill map task over one block, against a shadow disk."""
    job = ctx["job"]
    disk = LocalDisk(spec.profile, name=spec.disk_name)
    tracer = task_tracer(bool(ctx.get("trace")))
    task = SortMergeMapTask(job, spec.task_id, spec.node, disk, tracer=tracer)
    output = task.run(ctx["codec"].decode(spec.data), input_bytes=len(spec.data))
    return HadoopMapResult(output, task.counters, disk.export_state(), tracer.export())


# -- Hadoop reduce ------------------------------------------------------------


@dataclass(slots=True)
class HadoopReduceSpec:
    partition: int
    node: str
    profile: DeviceProfile
    disk_name: str
    #: In-memory segments: fetched ones are :class:`~repro.io.runio.KeyedRun`
    #: (frames and keys, spilled without re-pickling); plain pair lists too.
    memory: list[KeyedRun | list[tuple[Any, Any]]]
    memory_bytes: int
    merger_runs: list[tuple[str, int]]
    merger_seq: int
    run_files: dict[str, bytes]
    #: Each run's keys by path; without them the merge decodes them.
    run_keys: dict[str, list[Any]] | None = None
    #: The engine's reducer facts (see :class:`SortMergeReduceTask`).
    namespace: str = "reduce"
    combine: bool = True


@dataclass(slots=True)
class HadoopReduceResult:
    partition: int
    output: list[Any]
    groups: int
    counters: Counters
    disk: DiskExport
    trace: Any = None


def reduce_spec(rtask: SortMergeReduceTask) -> HadoopReduceSpec:
    """The spec that ships ``rtask``'s ingested state (in-memory segments,
    on-disk runs, their bytes and keys) to :func:`hadoop_reduce_kernel`."""
    disk = rtask.disk
    memory, memory_bytes, (runs, seq) = rtask.export_ingested()
    return HadoopReduceSpec(
        rtask.partition,
        rtask.node,
        disk.profile,
        disk.name,
        memory,
        memory_bytes,
        runs,
        seq,
        {path: disk.peek(path) for path, _ in runs},
        rtask.run_keys,
        rtask.namespace,
        rtask.combining,
    )


def hadoop_reduce_kernel(
    ctx: dict[str, Any], spec: HadoopReduceSpec
) -> HadoopReduceResult:
    """Final merge + grouped reduce for one partition, on a shadow disk.

    The coordinator ships the ingestion-phase state (in-memory segments,
    on-disk run metadata and bytes); the run-phase counters come back on
    a fresh :class:`Counters` so the coordinator can merge both halves.
    """
    job = ctx["job"]
    disk = LocalDisk(spec.profile, name=spec.disk_name)
    disk.preload(spec.run_files)
    tracer = task_tracer(bool(ctx.get("trace")))
    rtask = SortMergeReduceTask(
        job,
        spec.partition,
        spec.node,
        disk,
        tracer=tracer,
        namespace=spec.namespace,
        combine=spec.combine,
    )
    rtask.adopt_ingested(
        spec.memory, spec.memory_bytes, (spec.merger_runs, spec.merger_seq), spec.run_keys
    )
    output, groups = rtask.run()
    return HadoopReduceResult(
        spec.partition,
        output,
        groups,
        rtask.counters,
        disk.export_state(preloaded=spec.run_files),
        tracer.export(),
    )


# -- push map: HOP and one-pass ----------------------------------------------


@dataclass(slots=True)
class PushMapSpec:
    task_id: int
    node: str
    data: bytes


#: The name the benchmark's probe builds the one-pass spec by.
OnePassMapSpec = PushMapSpec


@dataclass(slots=True)
class PushMapResult:
    #: Ordered ``(partition, pairs, nbytes)`` emissions; the coordinator
    #: replays their delivery once the attempt has survived.
    chunks: list[tuple[int, list[tuple[Any, Any]], int]]
    counters: Counters
    trace: Any = None


def _push_map(
    ctx: dict[str, Any], spec: PushMapSpec, buffer_for: Any, timer: str | None = None
) -> PushMapResult:
    """One push engine's map task: no disk I/O, only the ordered chunk stream.

    ``buffer_for(sink, counters, tracer)`` builds the engine's collect
    buffer around the sink that records each emitted chunk.
    """
    chunks: list[tuple[int, list[tuple[Any, Any]], int]] = []
    tracer = task_tracer(bool(ctx.get("trace")))
    counters = Counters()
    buffer = buffer_for(
        lambda partition, pairs, nbytes: chunks.append((partition, pairs, nbytes)), counters, tracer
    )
    run_map_task(
        ctx["job"], spec.task_id, spec.node, ctx["codec"].decode(spec.data), buffer, counters,
        input_bytes=len(spec.data), tracer=tracer, timer=timer,
    )  # fmt: skip
    return PushMapResult(chunks, counters, tracer.export())


def hop_map_kernel(ctx: dict[str, Any], spec: PushMapSpec) -> PushMapResult:
    """One pipelined map task: sorted mini-chunks, cut on record boundaries."""
    from repro.mapreduce.hop import _ChunkBuffer

    return _push_map(
        ctx, spec, lambda sink, counters, tracer: _ChunkBuffer(
            ctx["job"], spec.task_id, spec.node, ctx["hop"], sink, counters, tracer
        ),
    )  # fmt: skip


def onepass_map_kernel(ctx: dict[str, Any], spec: PushMapSpec) -> PushMapResult:
    """One hash-engine map task: scan or combine entirely in memory, the
    buffer's time charged to ``time.hash``."""
    from repro.core.engine import onepass_map_buffer

    job = ctx["job"]
    return _push_map(
        ctx, spec, lambda sink, counters, _tracer: onepass_map_buffer(job, sink, counters), C.T_HASH
    )


register_kernel("hadoop_map", hadoop_map_kernel)
register_kernel("hadoop_reduce", hadoop_reduce_kernel)
register_kernel("hop_map", hop_map_kernel)
register_kernel("onepass_map", onepass_map_kernel)
