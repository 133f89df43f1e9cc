"""Every metric the benchmark reports: name, unit, direction, bound, meaning.

This table is the single definition ``BENCHMARK.json`` (``python -m
benchmarks.e2e spec``), the printed reports, ``compare`` and ``README.md``
are written from.  End-to-end metrics come from the untraced measured
rounds, and their times are seconds *at the reference machine speed* (see
``harness.measure_end_to_end``); per-layer metrics come from the separate
traced/probed pass and are plain seconds.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "Metric",
    "CELLS",
    "END_TO_END",
    "PER_LAYER",
    "RUN_SECONDS",
    "engine_metric_rows",
    "benchmark_json",
]

#: ``--seconds`` the driver passes; about seven rounds fit on the 2-vCPU reference VM.
RUN_SECONDS = 26


@dataclass(frozen=True, slots=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    what: str
    #: End-to-end only: share of the baseline median by which the metric may
    #: get worse before it counts as a regression.
    bound: float = 0.0
    #: Module the metric belongs to (per-layer only).
    layer: str = ""
    #: A modelled figure that must repeat to the last digit on one seed.
    deterministic: bool = False
    #: End-to-end only: listed in ``BENCHMARK.json`` ``end_to_end``, i.e. held
    #: to its bound by the driver.  See "What the driver gates" in README.md.
    gated: bool = True


#: The eight timed cells of a workload: name -> (engine, batch, executor).
CELLS: dict[str, tuple[str, bool, str | None]] = {
    "hadoop.tuple": ("hadoop", False, None),
    "hadoop.batch": ("hadoop", True, None),
    "hop.tuple": ("hop", False, None),
    "hop.batch": ("hop", True, None),
    "onepass.tuple": ("onepass", False, None),
    "onepass.batch": ("onepass", True, None),
    "hadoop.batch.procs": ("hadoop", True, "processes:2"),
    "onepass.batch.procs": ("onepass", True, "processes:2"),
}

# The widest bound the driver's contract allows.  On the 2-vCPU VM the
# benchmark was defined on, the run-to-run spread of a rescaled wall
# (inter-quartile range over median of ten runs, each on another seed) is
# 3-9 %, and the contract wants it under a third of the bound; README.md
# "Bounds" has the measurements.
_TIME_BOUND = 0.25

END_TO_END: tuple[Metric, ...] = (
    Metric(
        "setup_s",
        "s",
        "lower",
        "median dataset generation + median (cluster build + HDFS load) of a cell",
        bound=_TIME_BOUND,
    ),
    *(
        Metric(
            f"{cell}.wall_s",
            "s",
            "lower",
            f"median wall of {engine.capitalize()} engine .run(), "
            f"{'batch' if batch else 'tuple'} kernel path, "
            f"{executor or 'serial'} executor",
            bound=_TIME_BOUND,
            # A processes:2 wall is bimodal where the second core comes and goes.
            gated=executor is None,
        )
        for cell, (engine, batch, executor) in CELLS.items()
    ),
    Metric(
        "cpu_s",
        "s",
        "lower",
        "sum over the 8 cells of median CPU (self + waited-for children, user + sys)",
        bound=_TIME_BOUND,
    ),
    Metric(
        "peak_rss_mb",
        "MiB",
        "lower",
        "ru_maxrss of the measuring process when the measured rounds end",
        bound=0.20,
    ),
    Metric(
        "io_model_busy_s",
        "s_model",
        "lower",
        "sum over the three serial batch cells of DiskStats.busy_time on every device "
        "(modelled, not measured: the only place spill/merge I/O cost shows)",
        bound=0.05,
        deterministic=True,
        # Exactly equal on every run of a seed (on pagefreq: of any seed), which
        # the driver refuses in a gated figure measured in seconds.
        gated=False,
    ),
)


def _layer(layer: str, rows: list[tuple[str, str, str, str]]) -> list[Metric]:
    return [Metric(name, unit, better, what, layer=layer) for name, unit, better, what in rows]


_ENGINE_ROWS: dict[str, tuple[str, str, str]] = {
    "map_phase_s": ("s", "lower", "JobResult.phase_times['map']"),
    "reduce_phase_s": ("s", "lower", "JobResult.phase_times['reduce']"),
    "t_parse_s": ("s", "lower", "time.parse counter (input decode inside map tasks)"),
    "t_map_fn_s": ("s", "lower", "time.map_fn counter"),
    "t_combine_s": ("s", "lower", "time.combine counter"),
    "t_hash_s": ("s", "lower", "time.hash counter (map-side scan/combine + reduce-side update)"),
    "t_reduce_fn_s": ("s", "lower", "time.reduce_fn counter"),
    "span_sort_s": ("s", "lower", "sum of self wall_s of the engine's sort spans"),
    "span_spill_s": ("s", "lower", "sum of self wall_s of the engine's spill spans"),
    "span_merge_s": ("s", "lower", "sum of self wall_s of the engine's merge spans"),
    "span_fetch_s": ("s", "lower", "sum of self wall_s of the engine's shuffle fetch spans"),
    "span_push_s": ("s", "lower", "sum of self wall_s of the engine's shuffle push spans"),
    "coordinator_s": ("s", "lower", "wall - kernel-wave time: replay, shuffle ingest, commit"),
    "unaccounted_frac": ("ratio", "lower", "share of the untraced wall no layer row explains"),
    "map_spill_bytes": ("bytes", "lower", "map.spill.bytes counter"),
    "reduce_spill_bytes": ("bytes", "lower", "reduce.spill.bytes counter"),
    "merge_read_bytes": ("bytes", "lower", "merge.read.bytes counter"),
    "shuffle_bytes": ("bytes", "lower", "shuffle.bytes counter"),
    "sort_records": ("count", "lower", "sort.records counter"),
    "hash_probes": ("count", "lower", "hash.probes counter"),
}

#: Engine rows that can be non-zero on that engine (the structurally-zero
#: ones — hash time on a sort-merge engine, sort spans on the hash engine,
#: parse time on HOP whose kernel does not time its decode — are left out).
_ENGINE_METRICS: dict[str, tuple[str, ...]] = {
    "hadoop": (
        "map_phase_s", "reduce_phase_s", "t_parse_s", "t_map_fn_s", "t_combine_s",
        "t_reduce_fn_s", "span_sort_s", "span_spill_s", "span_merge_s", "span_fetch_s",
        "coordinator_s", "unaccounted_frac", "map_spill_bytes", "reduce_spill_bytes",
        "merge_read_bytes", "shuffle_bytes", "sort_records",
    ),
    "hop": (
        "map_phase_s", "reduce_phase_s", "t_map_fn_s", "t_combine_s", "t_reduce_fn_s",
        "span_sort_s", "span_spill_s", "span_merge_s", "span_push_s", "coordinator_s",
        "unaccounted_frac", "reduce_spill_bytes", "merge_read_bytes", "shuffle_bytes",
        "sort_records",
    ),
    "onepass": (
        "map_phase_s", "reduce_phase_s", "t_parse_s", "t_map_fn_s", "t_hash_s",
        "span_push_s", "coordinator_s", "unaccounted_frac", "reduce_spill_bytes",
        "shuffle_bytes", "hash_probes",
    ),
}  # fmt: skip

_ENGINE_LAYER = {
    "hadoop": "repro.mapreduce.runtime",
    "hop": "repro.mapreduce.hop",
    "onepass": "repro.core.engine",
}

PER_LAYER: tuple[Metric, ...] = (
    *_layer("repro.hdfs", [
        ("hdfs.read_s", "s", "lower", "input_splits + read_block_bytes of every input block"),
        ("hdfs.read_bytes", "bytes", "lower", "bytes those reads returned"),
        ("hdfs.write_s", "s", "lower", "write_records of the reference output"),
        ("hdfs.write_bytes", "bytes", "lower", "encoded size of that file"),
        ("hdfs.write_records", "count", "lower", "records in that file"),
    ]),
    *_layer("repro.io.serialization", [
        ("io.decode_s", "s", "lower", "codec.decode of every input block"),
        ("io.decode_records", "count", "lower", "records decoded"),
        ("io.frames_encode_s", "s", "lower", "encode_frames over the full map output"),
        ("io.frames_decode_s", "s", "lower", "iter_frames over those bytes"),
        ("io.frames_bytes", "bytes", "lower", "framed size of the map output"),
    ]),
    *_layer("repro.io.batch", [
        ("io.batch_encode_s", "s", "lower", "RecordBatch.from_pairs + encode of the map output"),
        ("io.batch_decode_s", "s", "lower", "RecordBatch.decode of those bytes (keys only; values stay framed)"),
        ("io.batch_fanout_s", "s", "lower", "RecordBatch.fanout into the reduce partitions"),
    ]),
    *_layer("repro.io.disk", [
        ("io.disk_absorb_s", "s", "lower", "LocalDisk.absorb of every map task's DiskExport"),
        ("io.disk_bytes_written", "bytes", "lower", "bytes written, three serial batch cells"),
        ("io.disk_bytes_read", "bytes", "lower", "bytes read, three serial batch cells"),
        ("io.disk_random_ops", "count", "lower", "random ops, three serial batch cells"),
        ("io.disk_busy_model", "model_s", "lower", "modelled busy time, three serial batch cells"),
    ]),
    *_layer("repro.workloads", [
        ("workloads.map_fn_s", "s", "lower", "the job's map function over every record"),
        ("workloads.map_out_records", "count", "lower", "pairs it emitted"),
    ]),
    *_layer("repro.exec", [
        ("kernels.hadoop_map_s.tuple", "s", "lower", "hadoop_map wave, inline session, tuple"),
        ("kernels.hadoop_map_s.batch", "s", "lower", "hadoop_map wave, inline session, batch"),
        ("kernels.onepass_map_s.tuple", "s", "lower", "onepass_map wave, inline session, tuple"),
        ("kernels.onepass_map_s.batch", "s", "lower", "onepass_map wave, inline session, batch"),
        ("kernels.hadoop_reduce_s", "s", "lower", "hadoop_reduce wave, inline session, batch"),
        ("exec.map_wave_s.serial", "s", "lower", "hadoop_map batch wave, serial executor"),
        ("exec.map_wave_s.procs", "s", "lower", "the same wave on processes:2"),
        ("exec.map_wave_speedup", "ratio", "higher", "serial wave / processes:2 wave"),
        ("exec.result_pickle_s", "s", "lower", "pickle round trip of the wave's results"),
        ("exec.result_pickle_bytes", "bytes", "lower", "pickled size of those results"),
        ("exec.procs_wall_s.hadoop", "s", "lower", "hadoop.batch.procs cell wall, probed pass"),
        ("exec.procs_wall_s.onepass", "s", "lower", "onepass.batch.procs cell wall, probed pass"),
        ("exec.e2e_speedup.hadoop", "ratio", "higher", "hadoop.batch / hadoop.batch.procs wall"),
        ("exec.e2e_speedup.onepass", "ratio", "higher", "onepass.batch / onepass.batch.procs wall"),
    ]),
    *_layer("repro.mapreduce.sortmerge", [
        ("sortmerge.map_task_s.tuple", "s", "lower", "SortMergeMapTask.run, decoded input, tuple"),
        ("sortmerge.map_task_s.batch", "s", "lower", "SortMergeMapTask.run, decoded input, batch"),
        ("sortmerge.reduce_ingest_s", "s", "lower", "accept_segment of every fetched segment"),
        ("sortmerge.reduce_run_s", "s", "lower", "SortMergeReduceTask.run incl. last merge pass"),
    ]),
    *_layer("repro.mapreduce.merge", [
        ("merge.add_run_s", "s", "lower", "MultiPassMerger.add_run incl. background passes"),
        ("merge.final_merge_s", "s", "lower", "MultiPassMerger.final_merge, eager passes only"),
        ("merge.passes", "count", "lower", "merge.passes counter of the reduce probe"),
        ("merge.read_bytes", "bytes", "lower", "merge.read.bytes counter of the reduce probe"),
        ("merge.write_bytes", "bytes", "lower", "merge.write.bytes counter of the reduce probe"),
    ]),
    *_layer("repro.mapreduce.shuffle", [
        ("shuffle.fetch_s", "s", "lower", "ShuffleService.register + fetch_all, every partition"),
        ("shuffle.bytes", "bytes", "lower", "bytes of the fetched segments"),
    ]),
    *_layer("repro.core.partitioner", [
        ("partitioner.scan_s.tuple", "s", "lower", "ScanPartitionBuffer.add per pair"),
        ("partitioner.scan_s.batch", "s", "lower", "ScanPartitionBuffer.add_batch per record"),
        ("partitioner.combine_s", "s", "lower", "MapSideHashCombiner.add_batch per record"),
    ]),
    *_layer("repro.core hash backend", [
        ("hash.update_s.tuple", "s", "lower", "the mode's backend, per-pair update of each chunk"),
        ("hash.update_s.batch", "s", "lower", "the same chunks through the batch entry point"),
        ("hash.finish_s", "s", "lower", "draining the backend's results"),
        ("hash.resident_keys", "count", "higher", "keys held in memory when input ends"),
        ("hash.spilled_records", "count", "lower", "pairs and states written to disk"),
        ("hash.inmem_update_ratio", "ratio", "higher", "1 - spilled records / updates"),
        ("hash.first_emit_frac", "ratio", "lower", "share of wall when the first answer emits"),
    ]),
    *_layer("repro.mapreduce.journal", [
        ("journal.append_s", "s", "lower", "JobJournal.append, fsync on, one onepass.batch run"),
        ("journal.appends", "count", "lower", "journal.appends counter"),
        ("journal.bytes", "bytes", "lower", "journal.bytes counter"),
        ("journal.overhead_ratio", "ratio", "lower", "journaled / plain onepass.batch wall"),
    ]),
    *_layer("repro.obs", [
        ("trace.overhead_ratio", "ratio", "lower", "traced / untraced serial batch cell wall"),
        ("trace.spans", "count", "lower", "engine spans the three traced cells recorded"),
    ]),
    *(
        Metric(f"engine.{engine}.{row}", *_ENGINE_ROWS[row], layer=_ENGINE_LAYER[engine])
        for engine, rows in _ENGINE_METRICS.items()
        for row in rows
    ),
    *_layer("benchmarks.e2e harness", [
        ("harness.calib_s", "s", "lower", "median of the fixed pure-Python calibration loop"),
        ("harness.calib_spread", "ratio", "lower", "inter-quartile range / median of that loop's timings"),
    ]),
)  # fmt: skip


def engine_metric_rows(engine: str) -> tuple[str, ...]:
    return _ENGINE_METRICS[engine]


def benchmark_json(workloads: list[tuple[str, str]]) -> dict[str, object]:
    """The contents of the repository's ``BENCHMARK.json``."""
    return {
        "command": ["python3", "-m", "benchmarks.e2e", "measure"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in workloads],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
            if m.gated
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }
