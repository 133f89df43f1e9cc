"""Table II — map-phase CPU split between map function and sorting.

Paper: sessionization 61% map fn / 39% sort; per-user count 52% / 48%.
Measured on the real engine with per-phase timers.  Since `8b468fb` made
the bucket sort the only sort, a map task's sort is one C timsort over a
partition's keys, which costs a fraction of an interpreted map function:
the absolute shares run far below the paper's and are reported as notes.
Asserted is the shape that still holds: the sort share is larger for the
lighter map function (per-user count) than for sessionization, and the
hash engine spends no CPU sorting at all.
"""

from __future__ import annotations

from typing import Iterator

from benchmarks.conftest import clicks, run
from repro.analysis.report import ExperimentReport
from repro.core.engine import OnePassEngine
from repro.io.serialization import RawLineCodec
from repro.mapreduce.api import MapReduceJob
from repro.mapreduce.counters import C
from repro.mapreduce.runtime import HadoopEngine
from repro.workloads.per_user_count import per_user_count_onepass_job
from repro.workloads.sessionization import session_reduce


def session_line_map(line: str) -> Iterator[tuple[int, tuple[float, str]]]:
    """The paper's sessionization map: parse the full click log line."""
    ts, user, url = line.split("\t")
    yield (int(user), (float(ts), url))


def per_user_line_map(line: str) -> Iterator[tuple[int, int]]:
    """The paper's per-user-count map: 'simply emits (user id, 1)'."""
    yield (int(line.split("\t", 2)[1]), 1)


def _split(job, lines) -> tuple[float, float]:
    """(map-function seconds, sort seconds); like the paper's map-function
    figure, the first includes parsing the line."""
    c = run(HadoopEngine, job, lines, codec=RawLineCodec()).result.counters
    return c[C.T_MAP_FN] + c[C.T_PARSE], c[C.T_SORT]


def test_table2_cpu_split(check):
    # Map functions receive raw text lines (TextInputFormat), exactly as in
    # the paper: sessionization parses all three fields and carries the
    # (ts, url) payload; per-user count extracts only the user id.  No
    # combiner on the sessionization side; the sort covers raw map output.
    lines = [f"{ts}\t{user}\t{url}" for ts, user, url in clicks(120_000, 4_000, 1_000)]
    session_job = MapReduceJob(
        "sessionization-lines",
        session_line_map,
        lambda user, vals: session_reduce(user, vals, gap=5.0),
        input_path="in",
        output_path="out",
    )
    count_job = MapReduceJob(
        "per-user-lines",
        per_user_line_map,
        lambda k, vals: [(k, sum(vals))],
        input_path="in",
        output_path="out",
    )
    sess_fn, sess_sort = _split(session_job, lines)
    puc_fn, puc_sort = _split(count_job, lines)
    sess = sess_sort / (sess_fn + sess_sort)
    puc = puc_sort / (puc_fn + puc_sort)

    report = ExperimentReport(
        "T2",
        "Table II map-phase CPU: map function vs sorting",
        setup="real engine, 3 nodes, 120k clicks, per-phase wall timers",
    )
    report.observe(
        "lighter map fn -> larger sort share",
        "per-user 48% > sessionization 39%",
        f"{puc:.0%} vs {sess:.0%}",
        puc > sess,
    )
    report.note(f"sessionization sort share: measured {sess:.0%}, paper 39% of map-phase CPU")
    report.note(f"per-user-count sort share: measured {puc:.0%}, paper 48% of map-phase CPU")
    report.note(
        "the paper's sort is a large minority of map CPU (Java, 2011); since 8b468fb "
        "ours is one C timsort over a partition's keys, so the shares run at a "
        "fraction of the paper's and only their order is asserted"
    )
    report.note(
        f"sessionization: map_fn {sess_fn:.3f}s, sort {sess_sort:.3f}s; "
        f"per-user-count: map_fn {puc_fn:.3f}s, sort {puc_sort:.3f}s"
    )
    check(report)


def test_table2_hash_engine_eliminates_sort_cpu(check):
    """The §IV conclusion drawn from Table II: hashing removes that CPU."""
    counters = run(
        OnePassEngine, per_user_count_onepass_job("in", "out"), clicks(120_000, 4_000, 1_000)
    ).result.counters
    report = ExperimentReport(
        "T2b",
        "Hash-based engine spends zero CPU sorting",
        setup="one-pass engine, same workload",
    )
    report.observe(
        "sort CPU",
        "0 (no sort-merge)",
        f"{counters[C.T_SORT]:.4f}s",
        counters[C.T_SORT] == 0,
    )
    report.observe(
        "hash CPU replaces it",
        "> 0",
        f"{counters[C.T_HASH]:.4f}s",
        counters[C.T_HASH] > 0,
    )
    check(report)
