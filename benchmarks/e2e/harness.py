"""Cells, rounds and the end-to-end pass.

A *cell* is one engine x kernel path x executor combination.  Running a
cell builds a fresh ``LocalCluster``, loads the workload's records into
HDFS (untimed, reported as set-up), collects garbage and then times
``Engine(cluster, executor=...).run(job)``.  The end-to-end pass runs one
untimed warm-up cell and then at least :data:`MIN_ROUNDS` rounds with the
eight cells interleaved round-robin, so a noise burst spoils at most one
sample per cell; the headline value of a metric is the median over rounds.
It is a closed loop: one job at a time, the next cell starts when the
previous one has been checked.
"""

from __future__ import annotations

import gc
import hashlib
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import AbstractContextManager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro.core.engine import OnePassEngine
from repro.io.disk import DiskStats
from repro.io.serialization import BinaryCodec
from repro.mapreduce.hop import HOPEngine
from repro.mapreduce.runtime import HadoopEngine, JobResult, LocalCluster

from benchmarks.e2e.metrics import CELLS, END_TO_END
from benchmarks.e2e.workloads import BLOCK_SIZE, NUM_NODES, RECORDS_PER_CHUNK, Workload

__all__ = [
    "MIN_ROUNDS",
    "NOISY_CALIB_SPREAD",
    "REPO_ROOT",
    "OUT_DIR",
    "CellRun",
    "Calibration",
    "failure",
    "records_digest",
    "load_cluster",
    "run_cell",
    "check_output",
    "summarise",
    "manifest",
    "measure_end_to_end",
]

SCHEMA = "benchmarks.e2e/v1"
MIN_ROUNDS = 5
#: A run whose calibration timings spread wider than this is marked noisy.
NOISY_CALIB_SPREAD = 0.10
#: What the calibration loop takes at the *reference machine speed* (the
#: 2-vCPU VM the benchmark was defined on, when quiet).  Timed end-to-end
#: samples are rescaled to this speed, see :func:`measure_end_to_end`.
CALIB_REFERENCE_S = 0.0215
SERIAL_BATCH_CELLS = ("hadoop.batch", "hop.batch", "onepass.batch")

REPO_ROOT = Path(__file__).resolve().parents[2]
OUT_DIR = Path(__file__).resolve().parent / "out"

_ENGINES = {"hadoop": HadoopEngine, "hop": HOPEngine, "onepass": OnePassEngine}


# -- noise hygiene ------------------------------------------------------------


def _calibration_loop() -> float:
    """Seconds a fixed piece of pure-Python work takes right now."""
    t0 = time.perf_counter()
    acc = 0
    table: dict[int, int] = {}
    for i in range(200_000):
        acc += i * i
        table[i & 1023] = acc
    return time.perf_counter() - t0


@dataclass(slots=True)
class Calibration:
    """Timings of the fixed calibration loop taken through a run."""

    samples: list[float] = field(default_factory=list)

    def sample(self) -> float:
        self.samples.append(_calibration_loop())
        return self.samples[-1]

    @property
    def median(self) -> float:
        return statistics.median(self.samples)

    @property
    def spread(self) -> float:
        """Inter-quartile range over median of the timings."""
        q1, _, q3 = statistics.quantiles(self.samples, n=4)
        return (q3 - q1) / self.median

    @property
    def noisy(self) -> bool:
        return self.spread > NOISY_CALIB_SPREAD


# -- one cell -----------------------------------------------------------------


def records_digest(records: list[Any]) -> str:
    """SHA-256 over the ``repr`` of ``records`` (pickle bytes depend on object
    sharing, ``repr`` only on values)."""
    return hashlib.sha256(repr(records).encode()).hexdigest()


def _cpu_seconds() -> float:
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


@dataclass(slots=True)
class CellRun:
    cell: str
    result: JobResult
    wall_s: float
    cpu_s: float
    setup_s: float
    io: DiskStats
    digest: str
    cluster: LocalCluster


def load_cluster(records: list[Any]) -> LocalCluster:
    """A fresh cluster with ``records`` written to the HDFS file ``in``."""
    cluster = LocalCluster(num_nodes=NUM_NODES, block_size=BLOCK_SIZE)
    cluster.hdfs.write_records("in", records, records_per_chunk=RECORDS_PER_CHUNK)
    return cluster


def run_cell(
    workload: Workload,
    cell: str,
    records: list[Any],
    *,
    job: Any = None,
    executor: Any = None,
    tracer: Any = None,
    journal: Any = None,
    instrument: Callable[[LocalCluster], AbstractContextManager[None]] | None = None,
) -> CellRun:
    """Set up a fresh cluster, run ``cell`` once, read its output back.

    ``job`` and ``executor`` replace the cell's own (the traced pass wraps
    the executor to time kernel waves and hangs an emit policy on the job);
    ``instrument(cluster)`` is entered around the timed run so the caller
    can hang spans on the cluster's public methods.
    """
    engine_name, batch, cell_executor = CELLS[cell]
    if job is None:
        job = workload.onepass_job(batch) if engine_name == "onepass" else workload.mr_job(batch)

    t0 = time.perf_counter()
    cluster = load_cluster(records)
    setup_s = time.perf_counter() - t0

    gc.collect()
    with instrument(cluster) if instrument is not None else nullcontext():
        io0 = cluster.total_disk_stats()
        cpu0 = _cpu_seconds()
        t0 = time.perf_counter()
        engine = _ENGINES[engine_name](
            cluster,
            executor=executor if executor is not None else cell_executor,
            tracer=tracer,
            journal=journal,
        )
        result = engine.run(job)
        wall_s = time.perf_counter() - t0
        cpu_s = _cpu_seconds() - cpu0
    io = cluster.total_disk_stats().delta(io0)
    digest = records_digest(sorted(cluster.hdfs.read_records("out")))
    return CellRun(cell, result, wall_s, cpu_s, setup_s, io, digest, cluster)


def check_output(run: CellRun, reference: str) -> None:
    """Raise unless the cell's sorted output has the reference answer's digest."""
    if run.digest != reference:
        raise AssertionError(f"output digest {run.digest} != reference {reference}")


def failure(workload: Workload, cell: str, rnd: int) -> dict[str, Any]:
    """Name the failed operation; call while handling its exception."""
    return {
        "workload": workload.name,
        "cell": cell,
        "round": rnd,
        "error": traceback.format_exc(),
    }


# -- statistics -----------------------------------------------------------------


def summarise(samples: list[float]) -> dict[str, Any]:
    """Median, quartiles, minimum and count of one metric's samples."""
    if len(samples) >= 2:
        q1, _, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = q3 = samples[0]
    return {
        "value": statistics.median(samples),
        "q1": q1,
        "q3": q3,
        "min": min(samples),
        "n": len(samples),
        "samples": samples,
    }


# -- manifest -------------------------------------------------------------------


def _git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            check=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"  # the driver's checkout is not a git repository
    return out.stdout.strip()


def manifest(workload: Workload, seed: int, dataset_sha256: str, rounds: int) -> dict[str, Any]:
    """What produced a results entry."""
    return {
        "schema": SCHEMA,
        "git_sha": _git_sha(),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "hashseed": os.environ.get("PYTHONHASHSEED", ""),
        "seed": seed,
        "rounds": rounds,
        "dataset_sha256": dataset_sha256,
        "cells": {
            cell: {"engine": engine, "batch": batch, "executor": executor or "serial"}
            for cell, (engine, batch, executor) in CELLS.items()
        },
        "workload": workload.describe(),
    }


def generate(workload: Workload, seed: int, repeats: int = 3) -> tuple[list[Any], str, list[float]]:
    """Generate the dataset ``repeats`` times; the copies must be identical.

    Returns ``(records, sha256 of their encoded bytes, generation times)``.
    Repeating gives set-up a median instead of a single sample and checks
    on every run that the seed alone determines the input.
    """
    codec = BinaryCodec()
    records: list[Any] = []
    digests: set[str] = set()
    times: list[float] = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        records = workload.records(seed)
        times.append(time.perf_counter() - t0)
        digests.add(hashlib.sha256(codec.encode(records)).hexdigest())
    if len(digests) != 1:
        raise RuntimeError(f"{workload.name}: seed {seed} generated {len(digests)} datasets")
    return records, digests.pop(), times


# -- the end-to-end pass ----------------------------------------------------------


def measure_end_to_end(workload: Workload, seed: int, seconds: float) -> dict[str, Any]:
    """Run the untraced measured rounds of one workload.

    At least :data:`MIN_ROUNDS` rounds run; further rounds run while the
    measuring time spent plus one more round stays within ``seconds``.

    **Rescaling.**  The host this runs on changes speed: for minutes at a
    time everything, the calibration loop included, takes up to 1.5x as
    long.  The calibration loop is therefore timed before and after every
    cell, and the cell's wall, CPU and set-up samples are multiplied by
    ``CALIB_REFERENCE_S / mean(the two calibrations)`` — seconds at the
    reference machine speed — before the median over rounds is taken.  The
    plain medians are kept beside them as ``raw``.
    """
    calibration = Calibration()
    before = calibration.sample()
    records, dataset_sha256, gen_times = generate(workload, seed)
    gen_speed = 2 * CALIB_REFERENCE_S / (before + calibration.sample())
    reference = records_digest(workload.reference(records))

    run_cell(workload, "hadoop.tuple", records)  # untimed warm-up

    # name -> (rescaled samples, raw samples)
    samples: dict[str, tuple[list[float], list[float]]] = {
        name: ([], []) for cell in CELLS for name in (f"{cell}.wall_s", f"{cell}.cpu_s")
    } | {"setup_s": ([], [])}
    io_busy: dict[str, set[float]] = {cell: set() for cell in SERIAL_BATCH_CELLS}
    failures: list[dict[str, Any]] = []
    attempted = 0
    rounds = 0
    t_measure = time.perf_counter()
    while True:
        before = calibration.sample()
        for cell in CELLS:
            attempted += 1
            try:
                run = run_cell(workload, cell, records)
                check_output(run, reference)
            except Exception:  # a failed cell is counted and named, the run goes on
                failures.append(failure(workload, cell, rounds))
                before = calibration.sample()
                continue
            after = calibration.sample()
            speed = 2 * CALIB_REFERENCE_S / (before + after)
            before = after
            for name, raw in ((f"{cell}.wall_s", run.wall_s), (f"{cell}.cpu_s", run.cpu_s),
                              ("setup_s", run.setup_s)):  # fmt: skip
                samples[name][0].append(raw * speed)
                samples[name][1].append(raw)
            if cell in io_busy:
                io_busy[cell].add(run.io.busy_time)
        rounds += 1
        elapsed = time.perf_counter() - t_measure
        if rounds >= MIN_ROUNDS and elapsed + elapsed / rounds > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    for cell, values in io_busy.items():
        if len(values) > 1:  # the disks are modelled: the figure must repeat exactly
            failures.append(
                {"workload": workload.name, "cell": cell, "round": rounds,
                 "error": f"modelled disk busy time did not repeat: {sorted(values)}"}
            )  # fmt: skip

    metrics: dict[str, dict[str, Any]] = {}
    if not failures:
        def stats(name: str, offset: float = 0.0, raw_offset: float = 0.0) -> dict[str, Any]:
            scaled, raw = samples[name]
            out = summarise(scaled)
            for key in ("value", "q1", "q3", "min"):
                out[key] += offset
            return out | {"raw": statistics.median(raw) + raw_offset, "raw_samples": raw}

        gen = statistics.median(gen_times)
        metrics["setup_s"] = stats("setup_s", gen * gen_speed, gen)
        for cell in CELLS:
            metrics[f"{cell}.wall_s"] = stats(f"{cell}.wall_s")
        cpu = [stats(f"{cell}.cpu_s") for cell in CELLS]
        per_round = [sum(c["samples"][r] for c in cpu) for r in range(rounds)]
        metrics["cpu_s"] = summarise(per_round) | {
            "value": sum(c["value"] for c in cpu),
            "raw": sum(c["raw"] for c in cpu),
        }
        metrics["peak_rss_mb"] = summarise([peak_rss_mb])
        metrics["io_model_busy_s"] = summarise([sum(min(v) for v in io_busy.values())])
        for metric in END_TO_END:
            metrics[metric.name]["unit"] = metric.unit

    return {
        "pass": "end_to_end",
        "workload": workload.name,
        "manifest": manifest(workload, seed, dataset_sha256, rounds),
        "input_records": len(records),
        "reference_digest": reference,
        "ops_attempted": attempted,
        "ops_failed": len(failures),
        "failures": failures,
        "noisy": calibration.noisy,
        "calibration": {
            "median_s": calibration.median,
            "spread": calibration.spread,
            "samples": calibration.samples,
        },
        "metrics": metrics,
    }
