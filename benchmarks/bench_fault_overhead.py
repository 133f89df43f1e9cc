"""Fault-tolerance overhead and recovery cost across the three engines.

The paper's §I weighs one-pass analytics against fault tolerance: Hadoop
buys recovery with its synchronous map-output write, while a push
architecture has nothing at the mappers to re-fetch and must pay for
durability at delivery time (partition logs) — plus, optionally,
checkpoints of the incremental-hash state so recovery replays only a log
suffix instead of the whole input.

Two measurements here:

* **checkpointed vs full-replay recovery** for the one-pass engine under
  an identical reduce-failure plan: the checkpointed run must replay
  strictly fewer records, at the cost of real checkpoint I/O;
* **node-crash recovery** under an identical crash plan for all three
  engines: recovery counters (tasks re-run, bytes re-shuffled/replayed,
  recovery time) versus the sort-merge baseline's.
"""

from __future__ import annotations

from benchmarks.conftest import clicks, run
from repro.analysis.report import ExperimentReport, recovery_summary
from repro.core.aggregates import SUM
from repro.core.engine import OnePassConfig, OnePassEngine, OnePassJob
from repro.mapreduce.api import JobConfig, MapReduceJob
from repro.mapreduce.counters import C
from repro.mapreduce.faults import FaultPlan
from repro.mapreduce.hop import HOPEngine
from repro.mapreduce.runtime import HadoopEngine


def _run(engine, job, **engine_kw):
    """``job`` over 6 000 clicks on 4 nodes, 64 KB blocks, replication 2."""
    log = clicks(6000, 400, 150, seed=11)
    return run(engine, job, log, nodes=4, block_kb=64, replication=2, **engine_kw)


def _onepass_job(output: str) -> OnePassJob:
    return OnePassJob(
        name="per-user-count",
        map_fn=lambda r: [(r[1], 1)],
        aggregator=SUM,
        input_path="in/clicks",
        output_path=output,
        config=OnePassConfig(num_reducers=3, mode="incremental"),
    )


def _mr_job(output: str) -> MapReduceJob:
    return MapReduceJob(
        name="per-user-count",
        map_fn=lambda r: [(r[1], 1)],
        reduce_fn=lambda k, vs: [(k, sum(vs))],
        combine_fn=lambda k, vs: [(k, sum(vs))],
        input_path="in/clicks",
        output_path=output,
        config=JobConfig(num_reducers=3),
    )


def _reduce_failure_plan() -> FaultPlan:
    # One injected failure per reduce partition: every reduce task dies
    # once and must be rebuilt from its durable state.
    return FaultPlan(reduce_failures={0: 1, 1: 1, 2: 1})


def test_checkpointed_recovery_replays_less(check) -> None:
    """Checkpointed one-pass recovery replays strictly less than full replay."""
    clean = _run(OnePassEngine, _onepass_job("out/clean"))
    full_replay = _run(
        OnePassEngine, _onepass_job("out/full-replay"), fault_plan=_reduce_failure_plan()
    )
    checkpointed = _run(
        OnePassEngine,
        _onepass_job("out/checkpointed"),
        fault_plan=_reduce_failure_plan(),
        checkpoint_interval=3,
    )
    assert full_replay.output() == clean.output() == checkpointed.output()

    replayed_full = full_replay.counters[C.REPLAYED_RECORDS]
    replayed_ckpt = checkpointed.counters[C.REPLAYED_RECORDS]

    report = ExperimentReport(
        "FT1",
        "checkpointed vs full-replay one-pass recovery",
        setup="one-pass incremental, every reduce task killed once",
    )
    report.observe(
        "results identical to fault-free run",
        "recovery is exact",
        "byte-identical output",
        True,
    )
    report.observe(
        "checkpoint replays a strict log suffix",
        "replay shrinks with checkpoints",
        f"{replayed_ckpt:.0f} vs {replayed_full:.0f} records",
        replayed_ckpt < replayed_full,
    )
    report.observe(
        "durability is not free",
        "log + checkpoint I/O is real",
        (
            f"log {full_replay.counters[C.LOG_BYTES]:.0f} B, "
            f"checkpoints {checkpointed.counters[C.CHECKPOINT_BYTES]:.0f} B"
        ),
        full_replay.counters[C.LOG_BYTES] > 0
        and checkpointed.counters[C.CHECKPOINT_BYTES] > 0,
    )
    check(report)

    assert replayed_full > 0
    assert checkpointed.counters[C.CHECKPOINT_RESTORES] == 3
    assert clean.counters[C.LOG_BYTES] == 0  # no fault plan, no logging


def test_node_crash_recovery_overhead(check) -> None:
    """All three engines survive the same node crash with exact results."""
    results = {}
    for name, engine, make_job, engine_kw in (
        ("hadoop", HadoopEngine, _mr_job, {}),
        ("hop", HOPEngine, _mr_job, {}),
        ("onepass", OnePassEngine, _onepass_job, {"checkpoint_interval": 3}),
    ):
        clean = _run(engine, make_job("out/clean"))
        crashed = _run(
            engine,
            make_job("out/crash"),
            fault_plan=FaultPlan(node_crashes={"node01": 3}),
            **engine_kw,
        )
        assert crashed.output() == clean.output(), name
        results[name] = recovery_summary(crashed.counters)

    report = ExperimentReport(
        "FT2",
        "node-crash recovery across engines",
        setup="node01 crashes after 3 map completions, replication=2",
    )
    for name, summary in results.items():
        report.observe(
            f"{name}: exact result after crash",
            "recovery is exact",
            (
                f"rerun={summary['tasks_rerun']:.0f}, "
                f"reshuffled={summary['bytes_reshuffled']:.0f} B"
            ),
            summary["node_crashes"] == 1,
        )
    report.note(
        "hadoop re-executes the lost completed maps from lineage; the push "
        "engines replay replicated partition logs instead (no map re-runs)"
    )
    check(report)

    assert results["hadoop"]["tasks_rerun"] > 0
    assert results["hadoop"]["bytes_reshuffled"] > 0
    assert results["hop"]["replayed_records"] > 0
    # The one-pass reducer may have checkpointed right at the log tail, in
    # which case recovery is a pure state restore with an empty log suffix.
    assert results["onepass"]["checkpoint_restores"] > 0
    assert results["onepass"]["log_bytes"] > 0
    for summary in results.values():
        assert summary["blocks_rereplicated"] > 0
        assert summary["recovery_time"] > 0
