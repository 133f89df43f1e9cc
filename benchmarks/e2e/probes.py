"""The traced/probed pass: per-layer metrics measured from outside.

Three parts, all on the workload's real data and all recorded in one
:class:`~benchmarks.e2e.spans.SpanLog`:

1. **Engine cells.**  Each serial batch cell runs in rounds of a *plain*
   and a *traced* variant (the one-pass cell also *journaled*), in rotating
   order.  All variants carry harness spans on the cluster's HDFS reads and
   writes, on ``LocalDisk.absorb`` and on every kernel wave (the executor is
   wrapped); the traced one also gets ``tracer=Tracer()``, whose spans give
   the self wall time of sort, spill, merge, shuffle and reduce.  The rows
   of an engine's layer table are disjoint self times; what they leave of
   the plain cell's wall is printed as ``unaccounted``.
2. **Journal.**  The journaled variant appends to a real directory with
   fsync on; its wall over the plain cell's is ``journal.overhead_ratio``.
3. **Layer probes.**  The input blocks, the full map output and the
   shuffled partitions of the workload are pushed through each layer's
   public entry points directly (decode, framing, batches, map tasks,
   kernels, executors, shuffle, merger, partition buffers, hash backends).

End-to-end metrics are never taken from this pass.
"""

from __future__ import annotations

import functools
import pickle
import shutil
import statistics
import tempfile
import time
from collections import defaultdict
from contextlib import AbstractContextManager, contextmanager, nullcontext
from dataclasses import dataclass
from typing import Any, Callable, Iterator

from repro.core.aggregates import COLLECT
from repro.core.engine import OnePassJob
from repro.core.hotset import HotSetIncrementalHash
from repro.core.hybrid_hash import HybridHashGrouper
from repro.core.incremental import IncrementalHash, count_threshold_policy
from repro.core.partitioner import MapSideHashCombiner, ScanPartitionBuffer
from repro.exec import MPExecutor, SerialExecutor
from repro.exec.kernels import HadoopMapSpec, HadoopReduceSpec, OnePassMapSpec
from repro.io.batch import RecordBatch
from repro.io.disk import LocalDisk
from repro.io.serialization import encode_frames, iter_frames
from repro.mapreduce.counters import C, Counters
from repro.mapreduce.journal import JobJournal
from repro.mapreduce.merge import MultiPassMerger
from repro.mapreduce.partition import hash_partitioner
from repro.mapreduce.runtime import LocalCluster
from repro.mapreduce.scheduler import WaveScheduler
from repro.mapreduce.shuffle import ShuffleService
from repro.mapreduce.sortmerge import SortMergeMapTask, SortMergeReduceTask
from repro.obs.tracer import Tracer

from benchmarks.e2e import harness
from benchmarks.e2e.metrics import PER_LAYER, engine_metric_rows
from benchmarks.e2e.spans import SpanLog
from benchmarks.e2e.workloads import Workload

__all__ = ["measure_layers"]

ROUNDS = 3
ENGINES = ("hadoop", "hop", "onepass")


# -- wrapping the executor ------------------------------------------------------


class _SpannedSession:
    """An ``ExecSession`` that records one span per kernel wave."""

    def __init__(self, inner: Any, log: SpanLog) -> None:
        self._inner = inner
        self._log = log
        self.max_batch = inner.max_batch

    def run_batch(self, kernel: str, specs: Any) -> list[Any]:
        with self._log.span(f"exec.wave:{kernel}", tasks=len(specs)):
            return self._inner.run_batch(kernel, specs)

    def run_one(self, kernel: str, spec: Any) -> Any:
        with self._log.span(f"exec.wave:{kernel}", tasks=1):
            return self._inner.run_one(kernel, spec)

    def __enter__(self) -> "_SpannedSession":
        self._inner.__enter__()
        return self

    def __exit__(self, *exc: object) -> Any:
        return self._inner.__exit__(*exc)


class SpannedExecutor:
    """Any executor, with its kernel waves timed from outside."""

    name = "spanned"

    def __init__(self, inner: Any, log: SpanLog) -> None:
        self.inner = inner
        self.workers = inner.workers
        self.log = log

    def session(self, context: Any) -> _SpannedSession:
        return _SpannedSession(self.inner.session(context), self.log)


def _cluster_spans(log: SpanLog) -> Callable[[LocalCluster], AbstractContextManager[None]]:
    """Spans on the public methods of a cell's cluster the coordinator calls."""

    def instrument(cluster: LocalCluster) -> AbstractContextManager[None]:
        hdfs = cluster.hdfs
        return log.patched(
            [
                (hdfs, "input_splits", "hdfs.read"),
                (hdfs, "read_block_bytes", "hdfs.read"),
                (hdfs, "append_block", "hdfs.write"),
                *((disk, "absorb", "disk.absorb") for disk in cluster.intermediate_disks().values()),
            ]
        )

    return instrument


# -- engine spans -----------------------------------------------------------------


def engine_self_times(tracer: Tracer) -> dict[str, float]:
    """Self wall time of the engine's own spans, summed by span name.

    Spans nest on the tracer's logical clock; a span's self time is its
    ``wall_s`` minus that of the spans directly inside it.  Phase envelopes
    and synthetic spans without a wall time take no part.
    """
    spans = sorted(
        (s for s in tracer.spans if s.cat != "phase" and s.wall_s > 0.0),
        key=lambda s: (s.t0, -s.t1),
    )
    self_s = [s.wall_s for s in spans]
    open_spans: list[int] = []
    for i, span in enumerate(spans):
        while open_spans and spans[open_spans[-1]].t1 < span.t1:
            open_spans.pop()
        if open_spans:
            self_s[open_spans[-1]] -= span.wall_s
        open_spans.append(i)
    totals: dict[str, float] = defaultdict(float)
    for span, seconds in zip(spans, self_s):
        totals[span.name] += seconds
    return totals


def _median_of(dicts: list[dict[str, float]], key: str) -> float:
    return statistics.median(d.get(key, 0.0) for d in dicts)


def _layer_table(plain: list[dict[str, float]], traced: list[dict[str, float]]) -> dict[str, Any]:
    """Disjoint layer rows of one engine; the rest of the wall is unaccounted."""
    p = functools.partial(_median_of, plain)
    t = functools.partial(_median_of, traced)
    rows = [
        ("read: hdfs input_splits + read_block_bytes", p("hdfs.read")),
        ("map: decode (time.parse)", p("time.parse")),
        ("map: map fn (time.map_fn)", p("time.map_fn")),
        ("collect: partition + buffer (rest of map span self)",
         t("map") - p("time.parse") - p("time.map_fn")),
        ("sort", t("sort")),
        ("combine", t("combine")),
        ("spill", t("spill")),
        ("merge", t("merge")),
        ("shuffle: fetch + push", t("fetch") + t("push")),
        # HOP's snapshots call the reduce fn too and charge it to the same counter.
        ("reduce: reduce fn (time.reduce_fn)", p("time.reduce_fn")),
        ("reduce: group + last merge pass + finalize + HOP snapshot re-merge (span self)",
         t("reduce") + t("snapshot") - p("time.reduce_fn")),
        ("write: hdfs append_block", p("hdfs.write")),
        ("absorb: LocalDisk.absorb of shadow-disk exports", p("disk.absorb")),
    ]  # fmt: skip
    wall = p("wall")
    rows.append(("unaccounted", wall - sum(seconds for _, seconds in rows)))
    return {"untraced_wall_s": wall, "rows": rows}


Samples = dict[tuple[str, str], list[dict[str, float]]]
Counts = dict[str, dict[str, float]]


def _run_engine_cells(
    workload: Workload,
    records: list[Any],
    reference: str,
    log: SpanLog,
    calibration: harness.Calibration,
    failures: list[dict[str, Any]],
) -> tuple[Samples, Counts, int]:
    """Part 1 and 2: plain / traced / journaled / procs cells in rounds.

    Returns the timing samples per ``(engine, variant)``, the deterministic
    counters per engine (of its first plain run) and the cells attempted.
    """
    instrument = _cluster_spans(log)
    samples: Samples = defaultdict(list)
    counts: Counts = {"trace": {"spans": 0}}
    attempted = 0
    for rnd in range(ROUNDS):
        calibration.sample()
        work: list[tuple[str, str, str]] = []
        for engine in ENGINES:
            variants = ["plain", "traced"] + (["journaled"] if engine == "onepass" else [])
            shift = rnd % len(variants)
            work += [(engine, f"{engine}.batch", v) for v in variants[shift:] + variants[:shift]]
        work += [(engine, f"{engine}.batch.procs", "procs") for engine in ("hadoop", "onepass")]
        for engine, cell, variant in work:
            attempted += 1
            log.cell = f"{workload.name}/{cell}/{variant}#{rnd}"
            mark = len(log.spans)
            tracer = Tracer() if variant == "traced" else None
            journal_dir = journal = None
            journal_spans: AbstractContextManager[None] = nullcontext()
            try:
                if variant == "journaled":
                    harness.OUT_DIR.mkdir(exist_ok=True)
                    journal_dir = tempfile.mkdtemp(prefix="journal-", dir=harness.OUT_DIR)
                    journal = JobJournal(journal_dir, sync=True)
                    journal_spans = log.patched(
                        [(journal, "append", "journal.append"),
                         (journal, "finalize", "journal.append")]
                    )  # fmt: skip
                with journal_spans:
                    if variant == "procs":
                        run = harness.run_cell(workload, cell, records)
                    else:
                        run = harness.run_cell(
                            workload, cell, records,
                            executor=SpannedExecutor(SerialExecutor(), log),
                            tracer=tracer, journal=journal, instrument=instrument,
                        )  # fmt: skip
                harness.check_output(run, reference)
            except Exception:  # a failed cell is counted and named, the pass goes on
                failures.append(harness.failure(workload, f"{cell}/{variant}", rnd))
                continue
            finally:
                if journal is not None:
                    journal.close()
                if journal_dir is not None:
                    shutil.rmtree(journal_dir, ignore_errors=True)
            spans = log.since(mark)
            counters = run.result.counters.as_dict()
            sample = {
                "wall": run.wall_s,
                "wave": sum(sp.duration for sp in spans if sp.name.startswith("exec.wave:")),
                "map_phase": run.result.phase_times["map"],
                "reduce_phase": run.result.phase_times["reduce"],
                **{name: log.self_time(spans, name)
                   for name in ("hdfs.read", "hdfs.write", "disk.absorb", "journal.append")},
                **{k: v for k, v in counters.items() if k.startswith("time.")},
            }  # fmt: skip
            if tracer is not None:
                sample |= engine_self_times(tracer)
                if rnd == 0:
                    counts["trace"]["spans"] += len(tracer.spans)
            samples[engine, variant].append(sample)
            if variant == "plain" and engine not in counts:
                counts[engine] = counters | {
                    "io.bytes_written": run.io.bytes_written,
                    "io.bytes_read": run.io.bytes_read,
                    "io.random_ops": run.io.random_ops,
                    "io.busy": run.io.busy_time,
                }
            if variant == "journaled":
                counts["journal"] = counters
    return samples, counts, attempted


def _engine_values(samples: Samples, counts: Counts) -> tuple[dict[str, float], dict[str, Any]]:
    """Per-layer metrics and the layer table of every engine from its cells' samples."""
    values: dict[str, float] = {}
    tables: dict[str, Any] = {}
    ratios: list[float] = []
    for engine in ENGINES:
        plain, traced = samples[engine, "plain"], samples[engine, "traced"]
        if not plain or not traced:
            continue
        table = tables[engine] = _layer_table(plain, traced)
        wall = table["untraced_wall_s"]
        ratios += [t["wall"] / p["wall"] for p, t in zip(plain, traced)]
        c = counts[engine]
        row_values = {
            "map_phase_s": _median_of(plain, "map_phase"),
            "reduce_phase_s": _median_of(plain, "reduce_phase"),
            "t_parse_s": _median_of(plain, C.T_PARSE),
            "t_map_fn_s": _median_of(plain, C.T_MAP_FN),
            "t_combine_s": _median_of(plain, C.T_COMBINE),
            "t_hash_s": _median_of(plain, C.T_HASH),
            "t_reduce_fn_s": _median_of(plain, C.T_REDUCE_FN),
            **{f"span_{name}_s": _median_of(traced, name)
               for name in ("sort", "spill", "merge", "fetch", "push")},
            "coordinator_s": statistics.median(p["wall"] - p["wave"] for p in plain),
            "unaccounted_frac": table["rows"][-1][1] / wall,
            "map_spill_bytes": c.get(C.MAP_SPILL_BYTES, 0),
            "reduce_spill_bytes": c.get(C.REDUCE_SPILL_BYTES, 0),
            "merge_read_bytes": c.get(C.MERGE_READ_BYTES, 0),
            "shuffle_bytes": c.get(C.SHUFFLE_BYTES, 0),
            "sort_records": c.get(C.SORT_RECORDS, 0),
            "hash_probes": c.get(C.HASH_PROBES, 0),
        }  # fmt: skip
        for row in engine_metric_rows(engine):
            values[f"engine.{engine}.{row}"] = row_values[row]
    if ratios:
        values["trace.overhead_ratio"] = statistics.median(ratios)
    values["trace.spans"] = counts["trace"]["spans"]
    for key, name in (("io.bytes_written", "io.disk_bytes_written"),
                      ("io.bytes_read", "io.disk_bytes_read"),
                      ("io.random_ops", "io.disk_random_ops"),
                      ("io.busy", "io.disk_busy_model")):  # fmt: skip
        values[name] = sum(counts[engine][key] for engine in ENGINES if engine in counts)

    for engine in ("hadoop", "onepass"):
        plain, procs = samples[engine, "plain"], samples[engine, "procs"]
        if plain and procs:
            values[f"exec.procs_wall_s.{engine}"] = _median_of(procs, "wall")
            values[f"exec.e2e_speedup.{engine}"] = statistics.median(
                p["wall"] / q["wall"] for p, q in zip(plain, procs)
            )

    journaled, plain = samples["onepass", "journaled"], samples["onepass", "plain"]
    if journaled and plain:
        values["journal.append_s"] = _median_of(journaled, "journal.append")
        values["journal.appends"] = counts["journal"][C.JOURNAL_APPENDS]
        values["journal.bytes"] = counts["journal"][C.JOURNAL_BYTES]
        values["journal.overhead_ratio"] = statistics.median(
            j["wall"] / p["wall"] for p, j in zip(plain, journaled)
        )
    return values, tables


# -- layer probes ---------------------------------------------------------------


def _hash_backend(job: OnePassJob, disk: LocalDisk, counters: Counters) -> Any:
    """The reduce-side backend of ``job``'s mode, as ``OnePassReduceTask`` builds it."""
    cfg = job.config
    if cfg.mode == "incremental":
        return IncrementalHash(
            job.aggregator, memory_bytes=cfg.reduce_memory_bytes, disk=disk,
            namespace="probe", counters=counters,
        )  # fmt: skip
    if cfg.mode == "hotset":
        return HotSetIncrementalHash(
            job.aggregator, disk, "probe", capacity=cfg.hotset_capacity,
            spill_partitions=cfg.spill_partitions, counters=counters,
        )  # fmt: skip
    return HybridHashGrouper(
        disk, "probe", cfg.reduce_memory_bytes, aggregator=job.aggregator or COLLECT,
        spill_partitions=cfg.spill_partitions, counters=counters,
    )  # fmt: skip


def _hash_update(backend: Any, pairs: list[tuple[Any, Any]], batch: bool) -> None:
    """Feed one pushed chunk the way ``OnePassReduceTask.accept`` dispatches it."""
    if isinstance(backend, HybridHashGrouper):
        if batch:
            backend.add_batch(pairs)
        else:
            for key, value in pairs:
                backend.add(key, value)
    elif batch and isinstance(backend, IncrementalHash):
        backend.update_batch(pairs)
    else:  # hot-set admission is per pair on both kernel paths
        for key, value in pairs:
            backend.update(key, value)


def _wave(log: SpanLog, name: str, executor: Any, context: dict[str, Any],
          kernel: str, specs: list[Any]) -> list[Any]:  # fmt: skip
    """One kernel wave submitted the way the engines do, under one span."""
    out: list[Any] = []
    with executor.session(context) as session, log.span(name, tasks=len(specs)):
        for i in range(0, len(specs), session.max_batch):
            out += session.run_batch(kernel, specs[i : i + session.max_batch])
    return out


@dataclass(slots=True)
class _ProbeData:
    """The workload's real data, as the probes of every layer share it."""

    cluster: LocalCluster
    codec: Any
    blocks: list[bytes]  # one per HDFS block / map task
    assignments: list[Any]  # the scheduler's TaskAssignment per block
    emitted: list[list[list[tuple[Any, Any]]]]  # map output per block, per record
    reducer_nodes: dict[int, str]
    reference_records: list[Any]

    @property
    def num_reducers(self) -> int:
        return len(self.reducer_nodes)

    def profile(self, node: str) -> Any:
        return self.cluster.nodes[node].intermediate_disk.profile

    def context(self, job: Any) -> dict[str, Any]:
        """The job context an engine hands its executor session."""
        return {"job": job, "codec": self.codec, "trace": False}


def _probe_input(
    workload: Workload, records: list[Any], reference_records: list[Any],
    log: SpanLog, values: dict[str, float],
) -> _ProbeData:  # fmt: skip
    """repro.hdfs, repro.io.serialization, repro.io.batch, repro.workloads."""
    span = log.span
    cluster = harness.load_cluster(records)
    hdfs = cluster.hdfs
    job = workload.mr_job(True)
    scheduler = WaveScheduler(cluster.compute_node_names)

    with span("hdfs.read_s"):
        splits = hdfs.input_splits("in")
        blocks = [hdfs.read_block_bytes(s.block_id) for s in splits]
    values["hdfs.read_bytes"] = sum(len(b) for b in blocks)
    codec = hdfs.codec(hdfs.namenode.file_info("in").codec_name)
    with span("io.decode_s"):
        decoded = [list(codec.decode(block)) for block in blocks]
    values["io.decode_records"] = sum(len(block) for block in decoded)
    map_fn = job.map_fn
    with span("workloads.map_fn_s"):
        emitted = [[list(map_fn(record)) for record in block] for block in decoded]
    pairs = [pair for block in emitted for out in block for pair in out]
    values["workloads.map_out_records"] = len(pairs)

    with span("io.frames_encode_s"):
        framed = encode_frames(pairs)
    values["io.frames_bytes"] = len(framed)
    with span("io.frames_decode_s"):
        for _ in iter_frames(framed):
            pass
    with span("io.batch_encode_s"):
        batch_bytes = RecordBatch.from_pairs(pairs).encode()
    with span("io.batch_decode_s"):
        batch = RecordBatch.decode(batch_bytes)
    with span("io.batch_fanout_s"):
        batch.fanout(hash_partitioner, job.config.num_reducers)

    with span("hdfs.write_s"):
        hdfs.write_records("probe-out", reference_records)
    values["hdfs.write_bytes"] = hdfs.file_bytes("probe-out")
    values["hdfs.write_records"] = hdfs.file_records("probe-out")

    assignments, _ = scheduler.schedule(splits)
    # SortMergeMapTask on pre-decoded records: the map side without the kernel around it.
    for label, batch_path in (("tuple", False), ("batch", True)):
        map_job = workload.mr_job(batch_path)
        with span(f"sortmerge.map_task_s.{label}"):
            for a, block, data in zip(assignments, decoded, blocks):
                disk = LocalDisk(cluster.nodes[a.node].intermediate_disk.profile)
                SortMergeMapTask(map_job, a.task_id, a.node, disk).run(
                    iter(block), input_bytes=len(data)
                )
    return _ProbeData(
        cluster, codec, blocks, assignments, emitted,
        scheduler.assign_reducers(job.config.num_reducers), reference_records,
    )  # fmt: skip


def _probe_sortmerge_side(
    workload: Workload, data: _ProbeData, log: SpanLog, values: dict[str, float]
) -> None:
    """repro.exec, repro.io.disk, repro.mapreduce.shuffle / .sortmerge / .merge."""
    span = log.span
    cluster = data.cluster
    mr_tuple, mr_batch = workload.mr_job(False), workload.mr_job(True)
    op_tuple, op_batch = workload.onepass_job(False), workload.onepass_job(True)
    disks = [cluster.nodes[a.node].intermediate_disk for a in data.assignments]
    hadoop_specs = [
        HadoopMapSpec(a.task_id, a.node, block, disk.profile, disk.name)
        for a, block, disk in zip(data.assignments, data.blocks, disks)
    ]
    onepass_specs = [
        OnePassMapSpec(a.task_id, a.node, block) for a, block in zip(data.assignments, data.blocks)
    ]

    # Kernels through an inline session, then the same wave on both executors.
    serial = SerialExecutor()
    context = data.context
    _wave(log, "kernels.hadoop_map_s.tuple", serial, context(mr_tuple), "hadoop_map", hadoop_specs)
    map_results = _wave(
        log, "kernels.hadoop_map_s.batch", serial, context(mr_batch), "hadoop_map", hadoop_specs
    )
    _wave(log, "kernels.onepass_map_s.tuple", serial, context(op_tuple), "onepass_map", onepass_specs)
    _wave(log, "kernels.onepass_map_s.batch", serial, context(op_batch), "onepass_map", onepass_specs)
    procs = MPExecutor(2)
    for _ in range(ROUNDS):
        for name, executor in (("serial", serial), ("procs", procs)):
            _wave(log, f"exec.map_wave_s.{name}", executor, context(mr_batch), "hadoop_map",
                  hadoop_specs)  # fmt: skip
    with span("exec.result_pickle_s"):
        blob = pickle.dumps(map_results, protocol=pickle.HIGHEST_PROTOCOL)
        pickle.loads(blob)
    values["exec.result_pickle_bytes"] = len(blob)

    with span("io.disk_absorb_s"):
        for disk, res in zip(disks, map_results):
            disk.absorb(res.disk)
    shuffle = ShuffleService(cluster.intermediate_disks())
    with span("shuffle.fetch_s"):
        for res in map_results:
            shuffle.register(res.output)
        fetched = {p: shuffle.fetch_all(p) for p in data.reducer_nodes}
    values["shuffle.bytes"] = sum(seg.nbytes for segs in fetched.values() for seg in segs)

    # The reduce side, with spans on the merger it drives.  The kernel specs are
    # taken after ingestion, as the engine takes them; the kernel runs on shadow
    # disks, so the direct run() before it does not disturb its input.
    reduce_tasks: list[SortMergeReduceTask] = []
    reduce_specs: list[HadoopReduceSpec] = []
    reduce_output: list[Any] = []
    with log.patched(
        [(MultiPassMerger, "add_run", "merge.add_run_s"),
         (MultiPassMerger, "final_merge", "merge.final_merge_s")]
    ):  # fmt: skip
        for p, node in data.reducer_nodes.items():
            disk = cluster.nodes[node].intermediate_disk
            rtask = SortMergeReduceTask(mr_batch, p, node, disk)
            reduce_tasks.append(rtask)
            with span("sortmerge.reduce_ingest_s"):
                for seg in fetched[p]:
                    rtask.accept_segment(list(seg.pairs), seg.nbytes)
            memory, memory_bytes, (runs, seq) = rtask.export_ingested()
            reduce_specs.append(
                HadoopReduceSpec(p, node, disk.profile, disk.name, list(memory), memory_bytes,
                                 runs, seq, {path: disk.peek(path) for path, _ in runs})
            )  # fmt: skip
        for rtask in reduce_tasks:
            with span("sortmerge.reduce_run_s"):
                output, _groups = rtask.run()
            reduce_output += output
    _check(reduce_output, data.reference_records, "SortMergeReduceTask probe")
    merged = Counters()
    for rtask in reduce_tasks:
        merged.merge(rtask.counters)
    values["merge.passes"] = merged[C.MERGE_PASSES]
    values["merge.read_bytes"] = merged[C.MERGE_READ_BYTES]
    values["merge.write_bytes"] = merged[C.MERGE_WRITE_BYTES]
    kernel_results = _wave(
        log, "kernels.hadoop_reduce_s", serial, context(mr_batch), "hadoop_reduce", reduce_specs
    )
    _check([r for res in kernel_results for r in res.output], data.reference_records,
           "hadoop_reduce kernel probe")  # fmt: skip


Chunk = tuple[int, list[tuple[Any, Any]], int]


def _scan(data: _ProbeData, buffer_bytes: int, batch: bool) -> list[Chunk]:
    """The map output through one ``ScanPartitionBuffer`` per map task."""
    chunks: list[Chunk] = []
    for block in data.emitted:
        buffer = ScanPartitionBuffer(
            data.num_reducers,
            lambda p, chunk, nbytes: chunks.append((p, chunk, nbytes)),
            buffer_bytes=buffer_bytes,
        )
        for out in block:
            if batch:
                buffer.add_batch(out)
            else:
                for key, value in out:
                    buffer.add(key, value)
        buffer.finish()
    return chunks


def _probe_onepass_side(
    workload: Workload, data: _ProbeData, log: SpanLog,
    values: dict[str, float], not_applicable: list[str],
) -> None:  # fmt: skip
    """repro.core.partitioner and the hash backend of the workload's mode."""
    span = log.span
    op_tuple, op_batch = workload.onepass_job(False), workload.onepass_job(True)
    cfg = op_batch.config
    with span("partitioner.scan_s.tuple"):
        _scan(data, cfg.map_buffer_bytes, batch=False)
    with span("partitioner.scan_s.batch"):
        pushed = _scan(data, cfg.map_buffer_bytes, batch=True)
    if op_batch.is_aggregate and cfg.map_side_combine:
        pushed = []  # what reaches the reducers is the combiner's output
        with span("partitioner.combine_s"):
            for block in data.emitted:
                combiner = MapSideHashCombiner(
                    data.num_reducers,
                    op_batch.aggregator,
                    lambda p, chunk, nbytes: pushed.append((p, chunk, nbytes)),
                    memory_bytes=cfg.map_memory_bytes,
                )
                for out in block:
                    combiner.add_batch(out)
                combiner.finish()
    else:
        not_applicable.append("partitioner.combine_s")

    finalize = op_batch.finalize or (lambda key, result: [(key, result)])
    updates = sum(len(chunk) for _, chunk, _ in pushed)
    for label, job in (("tuple", op_tuple), ("batch", op_batch)):
        backends = [
            _hash_backend(job, LocalDisk(data.profile(node)), Counters())
            for node in data.reducer_nodes.values()
        ]
        with span(f"hash.update_s.{label}"):
            for p, chunk, _nbytes in pushed:
                _hash_update(backends[p], chunk, job.config.batch)
    values["hash.resident_keys"] = sum(b.resident_keys for b in backends)
    values["hash.spilled_records"] = sum(b.spilled_records for b in backends)
    values["hash.inmem_update_ratio"] = 1.0 - values["hash.spilled_records"] / updates
    hash_output: list[Any] = []
    with span("hash.finish_s"):
        for backend in backends:
            results = (
                backend.finish() if isinstance(backend, HybridHashGrouper) else backend.results()
            )
            for key, result in results:
                hash_output.extend(finalize(key, result))
    _check(hash_output, data.reference_records, "hash backend probe")


def _probe_layers(
    workload: Workload, records: list[Any], reference_records: list[Any], log: SpanLog
) -> tuple[dict[str, float], list[str]]:
    """Part 3: each layer's public entry points on the workload's real data."""
    values: dict[str, float] = {}
    not_applicable: list[str] = []
    data = _probe_input(workload, records, reference_records, log, values)
    _probe_sortmerge_side(workload, data, log, values)
    _probe_onepass_side(workload, data, log, values, not_applicable)
    return values, not_applicable


def _check(output: list[Any], reference_records: list[Any], what: str) -> None:
    if sorted(output) != reference_records:
        raise AssertionError(f"{what}: output differs from the reference answer")


def _first_emit_frac(
    workload: Workload, records: list[Any], reference: str, log: SpanLog
) -> float | None:
    """Share of the one-pass wall elapsed when the first early answer emits.

    Only the incremental backend consults an emit policy, so the metric
    does not apply to workloads whose mode is ``hybrid`` or ``hotset``.
    """
    job = workload.onepass_job(True)
    if job.config.mode != "incremental":
        return None
    inner = count_threshold_policy(max(2, len(records) // 1000))
    fired: list[float] = []
    started: list[float] = []

    def policy(key: Any, state: Any) -> bool:
        hit = inner(key, state)
        if hit and not fired:
            fired.append(time.perf_counter())
        return hit

    @contextmanager
    def instrument(_cluster: LocalCluster) -> Iterator[None]:
        started.append(time.perf_counter())
        yield

    job.emit_policy = policy
    log.cell = f"{workload.name}/onepass.batch/emit-policy"
    run = harness.run_cell(workload, "onepass.batch", records, job=job, instrument=instrument)
    harness.check_output(run, reference)
    return (fired[0] - started[0]) / run.wall_s if fired else 1.0


# -- the pass ---------------------------------------------------------------------


def measure_layers(workload: Workload, seed: int) -> dict[str, Any]:
    """Run the traced/probed pass of one workload; write its span log."""
    log = SpanLog()
    calibration = harness.Calibration()
    failures: list[dict[str, Any]] = []
    records, dataset_sha256, _ = harness.generate(workload, seed, repeats=1)
    reference_records = workload.reference(records)
    reference = harness.records_digest(reference_records)

    samples, counts, attempted = _run_engine_cells(
        workload, records, reference, log, calibration, failures
    )
    values, tables = _engine_values(samples, counts)
    not_applicable: list[str] = []
    calibration.sample()
    log.cell = f"{workload.name}/probes"
    mark = len(log.spans)
    attempted += 1
    try:
        probe_values, not_applicable = _probe_layers(workload, records, reference_records, log)
        values |= probe_values
        first_emit = _first_emit_frac(workload, records, reference, log)
        if first_emit is None:
            not_applicable.append("hash.first_emit_frac")
        else:
            values["hash.first_emit_frac"] = first_emit
    except Exception:  # a failed probe is counted and named like a failed cell
        failures.append(harness.failure(workload, "probes", 0))
    # Probe spans carry the name of the metric they measure.
    by_name: dict[str, list[float]] = defaultdict(list)
    for sp in log.since(mark):
        by_name[sp.name].append(sp.self_s)
    for name, self_times in by_name.items():
        # The executor waves repeat interleaved: report their median, not their sum.
        pick = statistics.median if name.startswith("exec.map_wave_s.") else sum
        values[name] = pick(self_times)
    if "merge.add_run_s" not in values and not failures:
        # Every fetched segment fitted the reduce buffer: the merger never ran.
        not_applicable += ["merge.add_run_s", "merge.final_merge_s"]
    if "exec.map_wave_s.procs" in values:
        values["exec.map_wave_speedup"] = (
            values["exec.map_wave_s.serial"] / values["exec.map_wave_s.procs"]
        )
    values["harness.calib_s"] = calibration.median
    values["harness.calib_spread"] = calibration.spread

    harness.OUT_DIR.mkdir(exist_ok=True)
    log.write_jsonl(str(harness.OUT_DIR / f"trace-{workload.name}.jsonl"))

    metrics: dict[str, dict[str, Any]] = {}
    for metric in PER_LAYER:
        if metric.name in not_applicable:
            values[metric.name] = 0.0
        if metric.name in values:
            metrics[metric.name] = {"value": values[metric.name], "unit": metric.unit}
        elif not failures:
            raise RuntimeError(f"{workload.name}: per-layer metric {metric.name} was not measured")
    return {
        "pass": "per_layer",
        "workload": workload.name,
        "manifest": harness.manifest(workload, seed, dataset_sha256, ROUNDS),
        "input_records": len(records),
        "reference_digest": reference,
        "ops_attempted": attempted,
        "ops_failed": len(failures),
        "failures": failures,
        "noisy": calibration.noisy,
        "calibration": {"median_s": calibration.median, "spread": calibration.spread},
        "metrics": metrics,
        "not_applicable": sorted(not_applicable),
        "layer_tables": tables,
        "span_log": f"benchmarks/e2e/out/trace-{workload.name}.jsonl",
    }
