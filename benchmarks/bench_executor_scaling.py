"""Executor scaling: serial vs threaded vs multiprocess map execution.

Two claims, on the paper's sessionization workload over the sort-merge
baseline:

* **correctness always** — every executor must reproduce the serial run
  byte for byte (output records, HDFS bytes, counters sans wall-clock
  timers), on any machine;
* **scaling where possible** — with >= 4 cores, a 4-worker fork pool must
  run the map wave (the part the executor parallelises) >= 2x faster than
  serial.  End-to-end speedup is reported too but bounded by Amdahl's law:
  shuffle ingestion and the HDFS commit replay on the coordinator so that
  fault decisions and disk accounting stay deterministic.  On smaller
  machines the speedups are reported but not asserted (a 1-core CI box
  cannot exhibit parallelism).
"""

from __future__ import annotations

import os
import time

from benchmarks.conftest import clicks, load, run
from repro.analysis.report import ExperimentReport
from repro.exec import resolve_executor
from repro.exec.kernels import HadoopMapSpec
from repro.mapreduce.runtime import HadoopEngine
from repro.workloads.sessionization import sessionization_job

MIN_CORES_FOR_SPEEDUP = 4
EXPECTED_SPEEDUP = 2.0
NUM_CLICKS = 250_000


def _run_end_to_end(records, executor):
    done = run(
        HadoopEngine, sessionization_job("in", "out", gap=5.0), records,
        nodes=4, block_kb=64, executor=executor,
    )
    counters = {
        k: v for k, v in done.counters.as_dict().items() if not k.startswith("time.")
    }
    observed = (done.cluster.hdfs.file_bytes("out"), done.output(), counters)
    return done.result.wall_time, observed


def _time_map_wave(records, executor_names):
    """Time one full map wave (prebuilt specs) under each executor.

    This isolates the work the executor actually distributes — the map
    kernels — from the coordinator-side shuffle/commit replay, so the
    measured ratio is the executor's scaling, not Amdahl's residue.
    """
    cluster = load(records, nodes=4, block_kb=64)
    job = sessionization_job("in", "out", gap=5.0)
    codec = cluster.hdfs.codec(cluster.hdfs.namenode.file_info("in").codec_name)
    specs = []
    for task_id, split in enumerate(cluster.hdfs.input_splits("in")):
        node = split.preferred_nodes[0]
        data = cluster.hdfs.read_block_bytes(split.block_id, from_node=node)
        disk = cluster.nodes[node].intermediate_disk
        specs.append(HadoopMapSpec(task_id, node, data, disk.profile, disk.name))
    context = {"job": job, "codec": codec}

    times = {}
    for name in executor_names:
        executor = resolve_executor(None if name == "serial" else name)
        t0 = time.perf_counter()
        with executor.session(context) as session:
            done = 0
            while done < len(specs):
                batch = specs[done : done + session.max_batch]
                done += len(session.run_batch("hadoop_map", batch))
        times[name] = time.perf_counter() - t0
    return times


def test_executor_scaling(check):
    records = clicks(NUM_CLICKS, 2_000, 500, seed=11)
    e2e = {}
    e2e["serial"], reference = _run_end_to_end(records, None)
    for name in ("threads:4", "processes:4"):
        e2e[name], observed = _run_end_to_end(records, name)
        assert observed == reference, f"{name} output diverged from serial"
    wave = _time_map_wave(records, ("serial", "processes:4"))
    cores = os.cpu_count() or 1
    wave_speedup = wave["serial"] / wave["processes:4"]
    e2e_speedup = e2e["serial"] / e2e["processes:4"]

    report = ExperimentReport(
        "PR2",
        "Executor scaling: sessionization map waves across cores",
        setup=f"sort-merge engine, {NUM_CLICKS} clicks, {cores} cores",
    )
    report.observe(
        "parallel executors reproduce the serial run exactly",
        "byte-identical",
        "byte-identical (asserted per run)",
        True,
    )
    report.observe(
        f"map wave, 4 fork workers (asserted only with >= {MIN_CORES_FOR_SPEEDUP} cores)",
        f">= {EXPECTED_SPEEDUP:.0f}x",
        f"{wave_speedup:.2f}x "
        f"(serial {wave['serial']:.2f}s, mp {wave['processes:4']:.2f}s)",
        wave_speedup >= EXPECTED_SPEEDUP or cores < MIN_CORES_FOR_SPEEDUP,
    )
    report.observe(
        "end-to-end job, 4 fork workers (reported; Amdahl-bound by coordinator)",
        "speedup < map wave",
        f"{e2e_speedup:.2f}x "
        f"(serial {e2e['serial']:.2f}s, mp {e2e['processes:4']:.2f}s)",
        True,
    )
    check(report)
