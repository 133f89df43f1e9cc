"""Ablation A4 — HOP's pipelining granularity.

The paper hypothesises that "MapReduce Online transmits map output eagerly
in finer granularity and hence increases network cost".  Sweeping the push
granularity on the simulator (message counts, completion time) and the real
engine (identical answers, work redistribution) quantifies the trade.
"""

from __future__ import annotations

from benchmarks.conftest import clicks, run, simulate
from repro.analysis.report import ExperimentReport
from repro.analysis.tables import format_table
from repro.mapreduce.counters import C
from repro.mapreduce.hop import HOPConfig, HOPEngine
from repro.simulator import GB, SESSIONIZATION, HOPPipeline, HOPSimConfig
from repro.workloads.page_frequency import page_frequency_job, reference_page_counts

GRANULARITIES_MB = (1, 4, 16)


def test_granularity_simulator(check):
    profile = SESSIONIZATION.scaled(64 * GB)
    results = {
        g: simulate(
            HOPPipeline,
            profile,
            hop=HOPSimConfig(granularity_bytes=g * 1024 * 1024, snapshot_fractions=()),
        )
        for g in GRANULARITIES_MB
    }
    messages = {g: r.totals.network_messages for g, r in results.items()}
    times = {g: r.completion_minutes for g, r in results.items()}

    report = ExperimentReport(
        "A4",
        "Ablation: HOP pipelining granularity (simulator)",
        setup="sessionization 64 GB, snapshots off, chunk size in "
        f"{GRANULARITIES_MB} MB",
    )
    report.observe(
        "finer granularity multiplies network messages",
        "eager transmission in finer granularity",
        {f"{g} MB": m for g, m in messages.items()},
        messages[1] > 3 * messages[4] > 9 * messages[16] / 4,
    )
    report.observe(
        "no completion-time benefit from finer chunks",
        "increases network cost without speedup",
        {f"{g} MB": f"{t:.1f} min" for g, t in times.items()},
        times[1] >= 0.95 * times[16],
    )
    report.note(
        format_table(
            ("granularity", "messages", "completion"),
            [(f"{g} MB", messages[g], f"{times[g]:.1f} min") for g in GRANULARITIES_MB],
        )
    )
    check(report)


def test_granularity_real_engine(check):
    log = clicks(40_000, 1_500, 400)
    expected = reference_page_counts(log)
    results = {}
    for g in (100, 1_000, 10_000):
        results[g] = run(
            HOPEngine,
            page_frequency_job("in", "out", with_combiner=False),
            log,
            block_kb=96,
            hop_config=HOPConfig(granularity_records=g, snapshot_fractions=()),
        )
        assert dict(results[g].output()) == expected
    report = ExperimentReport(
        "A4b",
        "Ablation: HOP granularity (real engine)",
        setup="page frequency, 40k clicks, chunk of 100/1k/10k records",
    )
    report.observe(
        "answers identical at every granularity",
        "granularity is a performance knob only",
        "checked in-loop",
        True,
    )
    sorts = {g: int(r.counters[C.SORT_RECORDS]) for g, r in results.items()}
    report.observe(
        "total records sorted unchanged",
        "pipelining only redistributes work",
        sorts,
        len(set(sorts.values())) == 1,
    )
    shuffles = {g: int(r.counters[C.SHUFFLE_BYTES]) for g, r in results.items()}
    report.observe(
        "shuffle volume roughly constant",
        "same data moves regardless of chunking",
        shuffles,
        max(shuffles.values()) < 1.5 * min(shuffles.values()),
    )
    check(report)
