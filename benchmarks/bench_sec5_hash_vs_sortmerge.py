"""§V — the prototype results: hash-based engine vs tuned stock Hadoop.

Paper claims:

* "The hash-based system can save up to 48% of CPU cycles, and up to 53%
  of running time."
* "The I/O cost due to internal data spills in the reduce phase can be
  reduced by three orders of magnitude when the frequent algorithm is
  used together with hashing."

Measured on the *real* engines at laptop scale.  CPU is measured as
process CPU time around each run (both engines execute in-process, so
this is the figure of merit the paper's CPU-cycle profiling corresponds
to).  The group-by-dominated regime (no combiner, reduce memory smaller
than the shuffled data) is where sort-merge's costs are fully exposed —
the regime of the paper's sessionization headline; the combiner regime is
reported as well for honesty.  Cross-checked at paper scale on the
simulator (S5b).
"""

from __future__ import annotations

import time

import pytest

from benchmarks.conftest import run_once
from repro.analysis.report import ExperimentReport
from repro.analysis.tables import human_bytes, human_time
from repro.core.engine import OnePassConfig, OnePassEngine
from repro.mapreduce.counters import C
from repro.mapreduce.runtime import HadoopEngine, LocalCluster
from repro.simulator import (
    CLUSTER_2011,
    PER_USER_COUNT,
    SESSIONIZATION,
    HadoopPipeline,
    OnePassPipeline,
)
from repro.workloads.clickstream import ClickStreamConfig, generate_clicks
from repro.workloads.per_user_count import (
    per_user_count_job,
    per_user_count_onepass_job,
    reference_user_counts,
)


@pytest.fixture(scope="module")
def skewed_clicks():
    """A heavily skewed stream: hot users dominate, as in real click logs."""
    return list(
        generate_clicks(
            ClickStreamConfig(
                num_clicks=400_000, num_users=20_000, num_urls=500, user_skew=1.5
            )
        )
    )


def _loaded_cluster(clicks):
    cluster = LocalCluster(num_nodes=3, block_size=512 * 1024)
    cluster.hdfs.write_records("in", clicks)
    return cluster


def _timed_run(cluster, run_job):
    """Run a pre-loaded job measuring process CPU time and wall time.

    Data loading happens before the clock starts: the paper's comparison is
    about query execution, and both engines read the same HDFS blocks.
    """
    t_cpu = time.process_time()
    t_wall = time.perf_counter()
    result = run_job(cluster)
    return {
        "cluster": cluster,
        "result": result,
        "cpu": time.process_time() - t_cpu,
        "wall": time.perf_counter() - t_wall,
    }


def _sortmerge(clicks, *, with_combiner):
    def run_job(cluster):
        job = per_user_count_job(
            "in", "out", with_combiner=with_combiner
        ).with_config(reduce_buffer_bytes=64 * 1024, num_reducers=2)
        return HadoopEngine(cluster).run(job)

    return _timed_run(_loaded_cluster(clicks), run_job)


def _onepass(clicks, *, mode, capacity=1_500, map_side_combine=False):
    def run_job(cluster):
        cfg = OnePassConfig(
            mode=mode,
            hotset_capacity=capacity,
            num_reducers=2,
            map_side_combine=map_side_combine,
        )
        job = per_user_count_onepass_job("in", "out", config=cfg)
        return OnePassEngine(cluster).run(job)

    return _timed_run(_loaded_cluster(clicks), run_job)


def test_sec5_cpu_and_time_savings(benchmark, reports, skewed_clicks):
    def experiment():
        sm = _sortmerge(skewed_clicks, with_combiner=False)
        op = _onepass(skewed_clicks, mode="incremental")
        sm_c = _sortmerge(skewed_clicks, with_combiner=True)
        op_c = _onepass(
            skewed_clicks, mode="incremental", map_side_combine=True
        )
        ref = reference_user_counts(skewed_clicks)
        ok = all(
            dict(r["cluster"].hdfs.read_records("out")) == ref
            for r in (sm, op, sm_c, op_c)
        )
        return sm, op, sm_c, op_c, ok

    sm, op, sm_c, op_c, correct = run_once(benchmark, experiment)
    cpu_saving = 1 - op["cpu"] / sm["cpu"]
    time_saving = 1 - op["wall"] / sm["wall"]

    report = ExperimentReport(
        "S5",
        "§V prototype: hash engine vs sort-merge (real engines)",
        setup="per-user count, 400k clicks, Zipf 1.5, reduce memory < data; "
        "group-by path isolated (no combiner), plus the combiner regime",
    )
    report.observe("all four runs exact", "same answers", str(correct), correct)
    report.observe(
        "CPU cycles saved (group-by path)",
        "up to 48%",
        f"{cpu_saving:.0%} ({sm['cpu']:.2f}s -> {op['cpu']:.2f}s process CPU)",
        cpu_saving >= 0.25,
    )
    report.observe(
        "running time saved (group-by path)",
        "up to 53%",
        f"{time_saving:.0%} ({human_time(sm['wall'])} -> {human_time(op['wall'])})",
        time_saving >= 0.25,
    )
    report.observe(
        "sorting eliminated",
        "hash only",
        f"{sm['result'].counters[C.T_SORT]:.2f}s -> "
        f"{op['result'].counters[C.T_SORT]:.2f}s sort CPU",
        op["result"].counters[C.T_SORT] == 0,
    )
    report.observe(
        "reduce-side spill eliminated when states fit",
        "in-memory incremental processing",
        f"{human_bytes(sm['result'].counters[C.REDUCE_SPILL_BYTES] + sm['result'].counters[C.MERGE_WRITE_BYTES])} "
        f"-> {human_bytes(op['result'].counters[C.REDUCE_SPILL_BYTES])}",
        op["result"].counters[C.REDUCE_SPILL_BYTES] == 0,
    )
    combiner_gap = 1 - op_c["wall"] / sm_c["wall"]
    report.note(
        "combiner regime (both engines combining): "
        f"{sm_c['wall']:.2f}s vs {op_c['wall']:.2f}s wall "
        f"({combiner_gap:+.0%} saved) — when the combiner already collapses "
        "the data the gap narrows, consistent with the paper's 'up to' "
        "phrasing (its headline gains come from group-by-dominated "
        "workloads)"
    )
    reports(report)
    assert report.all_hold


def test_sec5_frequent_algorithm_spill_reduction(benchmark, reports, skewed_clicks):
    def experiment():
        sm = _sortmerge(skewed_clicks, with_combiner=False)
        hot = _onepass(skewed_clicks, mode="hotset", capacity=1_500)
        ref = reference_user_counts(skewed_clicks)
        ok = dict(hot["cluster"].hdfs.read_records("out")) == ref
        return sm, hot, ok

    sm, hot, correct = run_once(benchmark, experiment)
    sm_spill = (
        sm["result"].counters[C.REDUCE_SPILL_BYTES]
        + sm["result"].counters[C.MERGE_WRITE_BYTES]
    )
    hot_spill = hot["result"].counters[C.REDUCE_SPILL_BYTES]
    reduction = sm_spill / hot_spill if hot_spill else float("inf")

    report = ExperimentReport(
        "S5c",
        "§V frequent algorithm: reduce-phase spill I/O",
        setup="hot-set capacity 1,500/reducer vs ~2,900 distinct keys/reducer "
        "(memory cannot hold all states)",
    )
    report.observe("hot-set run exact", "approximate early, exact final", str(correct), correct)
    report.observe(
        "reduce-phase spill reduced by orders of magnitude",
        "~1000x at paper scale",
        f"{reduction:,.0f}x ({human_bytes(sm_spill)} -> {human_bytes(hot_spill)})",
        reduction >= 25,
    )
    hits = hot["result"].counters[C.HOT_HITS]
    misses = hot["result"].counters[C.HOT_MISSES]
    report.observe(
        "hot keys absorb the stream",
        "frequent keys stay in memory",
        f"{hits / (hits + misses):.1%} of updates hit resident states",
        hits > 9 * misses,
    )
    approx = hot["result"].extras["approximate_results"]
    report.observe(
        "early (approximate) answers for hot keys",
        "available when input ends, before finalisation",
        f"{len(approx)} hot keys reported",
        len(approx) > 0,
    )
    report.note(
        "the full 3-orders reduction requires the paper's scale: with 3,773 "
        "blocks every hot key recurs thousands of times per reducer, so the "
        "cold residue is vanishingly small relative to the spilled stream; "
        f"at {len(skewed_clicks)} clicks over 25 blocks we measure "
        f"{reduction:,.0f}x, and S5b shows elimination when states fit"
    )
    reports(report)
    assert report.all_hold


def test_sec5_simulator_scale(benchmark, reports):
    def experiment():
        out = {}
        for profile in (PER_USER_COUNT, SESSIONIZATION):
            sm = HadoopPipeline(CLUSTER_2011, profile, metric_bucket=60.0).run()
            op = OnePassPipeline(CLUSTER_2011, profile, metric_bucket=60.0).run()
            out[profile.name] = (sm, op)
        return out

    results = run_once(benchmark, experiment)
    report = ExperimentReport(
        "S5b",
        "§V at paper scale (simulator)",
        setup="10 nodes, full inputs, sort-merge vs one-pass pipeline",
    )
    for name, (sm, op) in results.items():
        saving = 1 - op.makespan / sm.makespan
        report.observe(
            f"{name} running-time saving",
            "up to 53%",
            f"{sm.completion_minutes:.0f} -> {op.completion_minutes:.0f} min "
            f"({saving:.0%})",
            0.15 <= saving <= 0.65,
        )
    puc_sm, puc_op = results["per-user-count"]
    report.observe(
        "counting workload: reduce spill eliminated when states fit",
        "in-memory processing",
        f"{puc_sm.totals.reduce_spill_bytes / 1e9:.1f} GB -> "
        f"{puc_op.totals.reduce_spill_bytes / 1e9:.1f} GB",
        puc_op.totals.reduce_spill_bytes == 0,
    )
    sess_sm, sess_op = results["sessionization"]
    report.observe(
        "holistic workload: no multi-pass merge even when spilling",
        "single write + single read",
        f"merge passes {sess_sm.totals.merge_passes} -> "
        f"{sess_op.totals.merge_passes}",
        sess_op.totals.merge_passes == 0 and sess_sm.totals.merge_passes > 0,
    )
    reports(report)
    assert report.all_hold
