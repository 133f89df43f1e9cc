"""Table III — capability matrix: Hadoop vs MR Online vs the ideal system.

The paper's table is qualitative; we make each cell *testable* by running
the three engines on the same workload and checking the behaviour the cell
claims: group-by implementation (sort vs hash), shuffle style, incremental
output, and in-memory processing.
"""

from __future__ import annotations

from benchmarks.conftest import clicks, load
from repro.analysis.report import ExperimentReport
from repro.analysis.tables import format_table
from repro.core.engine import OnePassConfig, OnePassEngine
from repro.core.incremental import count_threshold_policy
from repro.mapreduce.counters import C
from repro.mapreduce.hop import HOPConfig, HOPEngine
from repro.mapreduce.runtime import HadoopEngine
from repro.workloads.page_frequency import (
    page_frequency_job,
    page_frequency_onepass_job,
)


def test_table3_capability_matrix(check):
    cluster = load(clicks(40_000, 1_500, 500), block_kb=128)
    # Constrain reduce buffers so the sort-merge engines face the memory
    # regime the paper measured (reduce-side data > buffer); the one-pass
    # engine's per-key states still fit comfortably — that asymmetry is
    # Table III's in-memory row.
    def sortmerge_job(output):
        job = page_frequency_job("in", output, with_combiner=False)
        return job.with_config(reduce_buffer_bytes=64 * 1024)

    hadoop = HadoopEngine(cluster).run(sortmerge_job("o1"))
    hop = HOPEngine(cluster, hop_config=HOPConfig(snapshot_fractions=(0.5,))).run(
        sortmerge_job("o2")
    )
    job = page_frequency_onepass_job(
        "in", "o3", config=OnePassConfig(mode="incremental", map_side_combine=False)
    )
    job.emit_policy = count_threshold_policy(10)
    onepass = OnePassEngine(cluster).run(job)
    results = {"hadoop": hadoop, "hop": hop, "onepass": onepass}

    report = ExperimentReport(
        "T3",
        "Table III capability matrix, measured",
        setup="same page-frequency job on all three engines",
    )
    # Row 1: group-by implementation.
    report.observe(
        "Hadoop group-by",
        "sort-merge",
        f"sort records={int(hadoop.counters[C.SORT_RECORDS])}",
        hadoop.counters[C.SORT_RECORDS] > 0 and hadoop.counters[C.T_HASH] == 0,
    )
    report.observe(
        "MR Online group-by",
        "sort-merge",
        f"sort records={int(hop.counters[C.SORT_RECORDS])}",
        hop.counters[C.SORT_RECORDS] > 0,
    )
    report.observe(
        "One-pass group-by",
        "hash only",
        f"sort records={int(onepass.counters[C.SORT_RECORDS])}, "
        f"hash probes={int(onepass.counters[C.HASH_PROBES])}",
        onepass.counters[C.SORT_RECORDS] == 0
        and onepass.counters[C.HASH_PROBES] > 0,
    )
    # Row 2: incremental processing.
    report.observe(
        "Hadoop incremental output",
        "no",
        f"snapshots={int(hadoop.counters[C.SNAPSHOTS])}, early=absent",
        hadoop.counters[C.SNAPSHOTS] == 0 and not hadoop.snapshots,
    )
    report.observe(
        "MR Online incremental output",
        "periodic snapshots only",
        f"snapshots={len(hop.snapshots)} (re-merged)",
        len(hop.snapshots) == 1 and hop.counters[C.SNAPSHOTS] > 0,
    )
    early = onepass.extras["early_emitted"]
    report.observe(
        "One-pass incremental output",
        "fully incremental",
        f"{len(early)} groups emitted at threshold crossing",
        len(early) > 0,
    )
    # Row 3: in-memory processing (no reduce-side disk traffic when the
    # states fit; the sort-merge engines spill regardless).
    report.observe(
        "One-pass in-memory when data < memory",
        "yes",
        f"reduce spill={int(onepass.counters[C.REDUCE_SPILL_BYTES])} B",
        onepass.counters[C.REDUCE_SPILL_BYTES] == 0,
    )
    report.observe(
        "sort-merge engines spill even so",
        "no in-memory guarantee",
        f"hadoop spill={int(hadoop.counters[C.REDUCE_SPILL_BYTES])} B, "
        f"hop merge reads={int(hop.counters[C.MERGE_READ_BYTES])} B",
        hop.counters[C.MERGE_READ_BYTES] > 0,
    )
    report.note(
        format_table(
            ("engine", "sort recs", "hash probes", "snapshots", "early emits"),
            [
                (
                    name,
                    int(r.counters[C.SORT_RECORDS]),
                    int(r.counters[C.HASH_PROBES]),
                    int(r.counters[C.SNAPSHOTS]),
                    int(r.counters[C.EARLY_EMITS]),
                )
                for name, r in results.items()
            ],
        )
    )
    check(report)
