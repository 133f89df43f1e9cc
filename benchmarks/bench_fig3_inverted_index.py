"""Fig. 3 — task timeline of inverted-index construction.

The paper's point: "the blocking merge phase is present in this workload
as well.  Progress is stopped until local intermediate data is merged on
each node" — despite a smaller intermediate/input ratio than
sessionization.
"""

from __future__ import annotations

from benchmarks.conftest import BUCKET, simulate
from repro.analysis.report import ExperimentReport
from repro.analysis.series import find_valley, sparkline
from repro.analysis.tables import human_time
from repro.simulator import GB, INVERTED_INDEX, HadoopPipeline


def test_fig3_task_timeline(check):
    result = simulate(HadoopPipeline, INVERTED_INDEX)
    _times, series = result.task_log.counts_series(BUCKET)

    report = ExperimentReport(
        "F3",
        "Fig 3: task timeline, inverted index",
        setup="simulator, 10 nodes, 427 GB documents, sort-merge",
    )
    map_end = result.phase_window("map")[1]
    reduce_start = result.phase_window("reduce")[0]
    merge_spans = result.task_log.phase_spans("merge")
    report.observe(
        "blocking merge phase present",
        "progress stops until local data is merged",
        f"{len(merge_spans)} merges; reduce starts {human_time(reduce_start)} "
        f"after map ends {human_time(map_end)}",
        len(merge_spans) > 0 and reduce_start >= map_end,
    )
    report.observe(
        "substantial merge I/O despite smaller intermediate data",
        "150 GB reduce-side",
        f"{(result.totals.reduce_spill_bytes + result.totals.merge_write_bytes) / GB:.0f} GB",
        result.totals.reduce_spill_bytes + result.totals.merge_write_bytes
        > 100 * GB,
    )
    s = result.series
    _t, valley_v = find_valley(s.times, s.cpu_utilization)
    report.observe(
        "CPU valley between phases",
        "low utilisation while merging",
        f"valley {valley_v:.0%}",
        valley_v < 0.3,
    )
    report.observe(
        "completion near the paper's",
        "118 min",
        human_time(result.makespan),
        0.6 * 118 <= result.completion_minutes <= 1.4 * 118,
    )
    for phase in ("map", "merge", "reduce"):
        report.note(f"{phase:7s} {sparkline(series[phase])}")
    check(report)
