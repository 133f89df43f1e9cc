"""Chained two-job pipeline: PartitionCache vs spill-and-re-read (E2).

The canonical chain the partition cache (:mod:`repro.mapreduce.chain`)
exists for: stage one reorders the click log into per-user sessions (the
paper's sessionization workload, output cardinality == input), stage two
counts clicks per user over stage one's output.  Run naively, the
intermediate file round-trips through HDFS — replicated block writes,
then block reads by the next job's map phase.  Run under
:func:`run_chain`, those blocks stay in memory and the disks never see
them.

The metric is simulated **disk busy time** (the accounted seconds every
:class:`~repro.io.disk.LocalDisk` spent servicing requests, summed over
the cluster — the basis of the paper's utilisation figures), not wall
clock: it is deterministic, machine-independent, and exactly the cost
the cache removes.  The test requires the cached chain to be at least
2x cheaper end-to-end.

Block size matters: the device model charges a positioning cost per
random op plus bytes/bandwidth, so tiny blocks are seek-dominated and
understate the transfer traffic a real chain saves.  The bench uses 1 MiB
blocks — large enough that byte traffic dominates, matching the paper's
HDFS-sized-block setting.
"""

from __future__ import annotations

from benchmarks.conftest import clicks, load
from repro.analysis.report import ExperimentReport
from repro.mapreduce.chain import ChainStage, _make_engine, run_chain
from repro.workloads.counting import counting_onepass_job
from repro.workloads.sessionization import session_log_onepass_job, user_of_session

MIN_SPEEDUP = 2.0

NUM_CLICKS = 60_000
BLOCK_KB = 1024
NUM_NODES = 3


def _cluster_busy(cluster) -> float:
    return sum(stats.busy_time for stats in cluster.disk_stats().values())


def _stages() -> list[ChainStage]:
    return [
        ChainStage(session_log_onepass_job("clicks/in", "clicks/sessions"), "onepass"),
        ChainStage(
            counting_onepass_job(
                "session-click-count", user_of_session, "clicks/sessions", "clicks/out"
            ),
            "onepass",
        ),
    ]


def _chain_disk_busy(*, cached: bool) -> tuple[float, list, int]:
    """Disk busy seconds, output and cache hits of the chain on a fresh
    cluster.  Uncached, the two jobs run back to back, so stage one's
    output lands on the DataNodes and stage two reads it back."""
    cluster = load(
        clicks(NUM_CLICKS, 400, 200, seed=21),
        path="clicks/in", nodes=NUM_NODES, block_kb=BLOCK_KB,
    )
    busy0 = _cluster_busy(cluster)
    hits = 0
    if cached:
        hits = int(run_chain(cluster, _stages()).counters["cache.hits"])
    else:
        for stage in _stages():
            _make_engine(stage, cluster, None, None).run(stage.job)
    output = list(cluster.hdfs.read_records("clicks/out"))
    return _cluster_busy(cluster) - busy0, output, hits


def test_chained_pipeline_cache(check):
    uncached_busy, uncached_out, _ = _chain_disk_busy(cached=False)
    cached_busy, cached_out, hits = _chain_disk_busy(cached=True)
    speedup = uncached_busy / cached_busy
    report = ExperimentReport(
        "E2",
        "chained pipeline: partition cache vs spill-and-re-read",
        setup=f"sessionize {NUM_CLICKS} clicks -> count per user, "
        f"{BLOCK_KB} KiB blocks, {NUM_NODES} nodes",
    )
    report.observe(
        "cache changes no byte of the answer",
        "identical output",
        f"identical, {hits} cache hits",
        cached_out == uncached_out and hits > 0,
    )
    report.observe(
        "intermediate's disk round-trip removed",
        f">= {MIN_SPEEDUP:.0f}x less disk busy time",
        f"{speedup:.2f}x ({uncached_busy:.4f} s -> {cached_busy:.4f} s)",
        speedup >= MIN_SPEEDUP,
    )
    check(report)
