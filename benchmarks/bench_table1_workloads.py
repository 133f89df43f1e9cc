"""Table I — workloads, data volumes and completion times.

Two halves, as in the design document:

* **data-volume rows** (map output, reduce spill, intermediate/input,
  output) measured on the *real* engine at laptop scale — ratios are
  scale-free, so they must land near the paper's;
* **completion-time rows** from the calibrated simulator at the paper's
  full input sizes on the 10-node cluster model.
"""

from __future__ import annotations

from benchmarks.conftest import clicks, run, simulate
from repro.analysis.report import ExperimentReport
from repro.analysis.tables import format_table, human_time
from repro.mapreduce.counters import C
from repro.mapreduce.runtime import HadoopEngine
from repro.simulator import (
    INVERTED_INDEX,
    PAGE_FREQUENCY,
    PER_USER_COUNT,
    SESSIONIZATION,
    HadoopPipeline,
)
from repro.workloads.documents import DocumentConfig, generate_documents
from repro.workloads.inverted_index import inverted_index_job
from repro.workloads.page_frequency import page_frequency_job
from repro.workloads.per_user_count import per_user_count_job
from repro.workloads.sessionization import sessionization_job

#: Paper rows: (workload, intermediate/input %, completion minutes).
PAPER_ROWS = {
    "sessionization": (250.0, 76),
    "page-frequency": (0.4, 40),
    "per-user-count": (1.0, 24),
    "inverted-index": (70.0, 118),
}


def _volumes(job, records):
    job = job.with_config(reduce_buffer_bytes=256 * 1024)
    c = run(HadoopEngine, job, records).result.counters
    intermediate = c[C.MAP_OUTPUT_BYTES] + c[C.REDUCE_SPILL_BYTES]
    return {
        "intermediate_ratio": 100.0 * intermediate / c[C.MAP_INPUT_BYTES],
        "map_tasks": int(c[C.MAP_TASKS]),
        "reduce_tasks": int(c[C.REDUCE_TASKS]),
    }


def test_table1_data_volumes(check):
    log = clicks(60_000, 1_000, 600)
    # markup_per_word models GOV2's HTML boilerplate: bytes in, no postings out.
    docs = list(
        generate_documents(
            DocumentConfig(
                num_docs=800, vocab_size=6_000, mean_doc_words=80, markup_per_word=8.0
            )
        )
    )
    rows = {
        "sessionization": _volumes(sessionization_job("in", "out", gap=5.0), log),
        "page-frequency": _volumes(page_frequency_job("in", "out"), log),
        "per-user-count": _volumes(per_user_count_job("in", "out"), log),
        "inverted-index": _volumes(inverted_index_job("in", "out"), docs),
    }

    report = ExperimentReport(
        "T1a",
        "Table I data volumes (real engine, laptop scale)",
        setup="3 nodes, 256 KB blocks, 60k clicks / 800 HTML-like docs",
    )
    # Sessionization: intermediate far exceeds input (paper: 250%).
    report.observe(
        "sessionization intermediate/input",
        "250% (dominant)",
        f"{rows['sessionization']['intermediate_ratio']:.0f}%",
        rows["sessionization"]["intermediate_ratio"] > 100,
    )
    # Counting workloads: combiner collapses intermediate data (<2%... paper
    # 0.4% / 1.0%; at laptop scale blocks are tiny so a few % is the bound).
    for name, bound in (("page-frequency", 15), ("per-user-count", 15)):
        report.observe(
            f"{name} intermediate/input",
            f"{PAPER_ROWS[name][0]}% (tiny)",
            f"{rows[name]['intermediate_ratio']:.1f}%",
            rows[name]["intermediate_ratio"] < bound,
        )
    # Inverted index: substantial intermediate data, well below
    # sessionization's.  (Our per-pair pickle framing carries more overhead
    # than the paper's byte-array runtime, so the absolute ratio runs above
    # the paper's 70%; the shape — substantial but far below sessionization
    # — is what we check.)
    ratio = rows["inverted-index"]["intermediate_ratio"]
    report.observe(
        "inverted-index intermediate/input",
        "70% (substantial, below sessionization)",
        f"{ratio:.0f}%",
        20 < ratio < 160,
    )
    # Ordering: sessionization >> inverted index >> counting workloads.
    report.observe(
        "intermediate-ratio ordering",
        "sessionization > inverted-index > counting",
        "measured ordering",
        rows["sessionization"]["intermediate_ratio"]
        > rows["inverted-index"]["intermediate_ratio"]
        > rows["page-frequency"]["intermediate_ratio"],
    )
    report.note(
        format_table(
            ("workload", "interm/input %", "map tasks", "reduce tasks"),
            [
                (n, f"{r['intermediate_ratio']:.1f}", r["map_tasks"], r["reduce_tasks"])
                for n, r in rows.items()
            ],
        )
    )
    check(report)


def test_table1_completion_times(check):
    results = {
        profile.name: simulate(HadoopPipeline, profile)
        for profile in (SESSIONIZATION, PAGE_FREQUENCY, PER_USER_COUNT, INVERTED_INDEX)
    }
    report = ExperimentReport(
        "T1b",
        "Table I completion times (simulator, paper scale)",
        setup="10 nodes, 64 MB blocks, 40 reducers, full input sizes",
    )
    for name, result in results.items():
        paper_min = PAPER_ROWS[name][1]
        measured_min = result.completion_minutes
        report.observe(
            f"{name} completion",
            f"{paper_min} min",
            human_time(result.makespan),
            0.6 * paper_min <= measured_min <= 1.4 * paper_min,
        )
    ordering = sorted(results, key=lambda n: results[n].makespan)
    report.observe(
        "completion ordering",
        "per-user < page-freq < sessionization < inverted-index",
        " < ".join(ordering),
        ordering
        == ["per-user-count", "page-frequency", "sessionization", "inverted-index"],
    )
    check(report)
