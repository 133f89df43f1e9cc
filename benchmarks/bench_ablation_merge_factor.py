"""Ablation A1 — the merge factor F and multi-pass merge I/O.

DESIGN.md calls out Hadoop's factor-F merge as the driver of the paper's
"370 GB reduce spill for 256 GB input" observation: merge rewrite volume
grows with ceil(log_F(runs)).  Sweeping F on the real engine (byte-exact
accounting) and the simulator (paper scale) verifies the relationship and
its completion-time consequence.
"""

from __future__ import annotations

from benchmarks.conftest import clicks, run, simulate
from repro.analysis.report import ExperimentReport
from repro.analysis.tables import format_table, human_bytes
from repro.mapreduce.counters import C
from repro.mapreduce.runtime import HadoopEngine
from repro.simulator import GB, SESSIONIZATION, ClusterSpec, HadoopPipeline
from repro.workloads.per_user_count import per_user_count_job, reference_user_counts

FACTORS = (2, 4, 10)


def test_merge_factor_real_engine(check):
    log = clicks(120_000, 6_000, 500)
    expected = reference_user_counts(log)
    results = {}
    for factor in FACTORS:
        job = per_user_count_job("in", "out", with_combiner=False).with_config(
            merge_factor=factor, reduce_buffer_bytes=16 * 1024
        )
        results[factor] = run(HadoopEngine, job, log, block_kb=128)
        assert dict(results[factor].output()) == expected
    rewrites = {f: r.counters[C.MERGE_WRITE_BYTES] for f, r in results.items()}
    passes = {f: int(r.counters[C.MERGE_PASSES]) for f, r in results.items()}
    spills = {f: r.counters[C.REDUCE_SPILL_BYTES] for f, r in results.items()}

    report = ExperimentReport(
        "A1",
        "Ablation: merge factor F vs multi-pass merge I/O (real engine)",
        setup="per-user count, no combiner, 16 KB reduce buffers, F in "
        f"{FACTORS}",
    )
    report.observe(
        "smaller F means more merge passes",
        "ceil(log_F(runs)) passes",
        f"passes: {passes}",
        passes[2] > passes[4] > passes[10],
    )
    report.observe(
        "merge rewrite volume shrinks as F grows",
        "monotone in F",
        {f: human_bytes(b) for f, b in rewrites.items()},
        rewrites[2] > rewrites[4] >= rewrites[10],
    )
    report.observe(
        "spill volume itself is F-independent",
        "first write is the data",
        f"{human_bytes(spills[2])} at every F",
        len({round(b) for b in spills.values()}) == 1,
    )
    report.note(
        format_table(
            ("F", "merge passes", "merge rewrite", "spill"),
            [(f, passes[f], human_bytes(rewrites[f]), human_bytes(spills[f])) for f in FACTORS],
        )
    )
    check(report)


def test_merge_factor_simulator(check):
    results = {
        factor: simulate(HadoopPipeline, SESSIONIZATION, ClusterSpec(merge_factor=factor))
        for factor in (5, 10, 20)
    }
    report = ExperimentReport(
        "A1b",
        "Ablation: merge factor at paper scale (simulator)",
        setup="sessionization, 256 GB, F in (5, 10, 20)",
    )
    rw = {f: r.totals.merge_write_bytes for f, r in results.items()}
    report.observe(
        "merge rewrite volume shrinks as F grows",
        "multi-pass I/O falls",
        {f: f"{b / GB:.0f} GB" for f, b in rw.items()},
        rw[5] > rw[10] >= rw[20],
    )
    times = {f: r.completion_minutes for f, r in results.items()}
    report.observe(
        "completion time follows the merge I/O",
        "smaller F runs longer",
        {f: f"{t:.0f} min" for f, t in times.items()},
        times[5] >= times[10] >= times[20] * 0.95,
    )
    reduce_writes = results[10].totals.reduce_spill_bytes + results[10].totals.merge_write_bytes
    report.observe(
        "reduce-side write volume exceeds input at F=10",
        "370 GB for 256 GB input",
        f"{reduce_writes / GB:.0f} GB",
        reduce_writes > SESSIONIZATION.input_bytes,
    )
    check(report)
