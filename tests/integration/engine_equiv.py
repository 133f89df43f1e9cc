"""The engine equivalence dump: one JSON file that pins what a run *is*.

    PYTHONPATH=src python -m tests.integration.engine_equiv OUT.json

Runs 84 cells — 3 engines x 2 workloads x 6 fault plans x {serial,
``processes:2``}, plus HOP with ``backpressure_bytes=1`` (every chunk is
staged) on the serial executor — and records, per cell, everything the
byte-identical contract covers: output digest, the counter bag minus
``time.*``, every ``DiskStats`` field of every device, the journal record
sequence, spans and events on the logical clock, network bytes and
snapshots.  Nothing wall-clock enters the file, so two runs are
``cmp``-equal, and a refactor is checked by dumping at the parent commit
and at the change and diffing the two files (``--diff A.json B.json``
names the cells and fields that moved).

It imports only what every revision of the engines exports, so the same
file runs against a parent checkout: copy it there, or point
``PYTHONPATH`` at the parent's ``src`` and run this one.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from collections import Counter
from dataclasses import asdict
from typing import Any

from repro.core.engine import OnePassConfig, OnePassEngine
from repro.mapreduce.api import JobConfig
from repro.mapreduce.faults import FaultPlan
from repro.mapreduce.hop import HOPConfig, HOPEngine
from repro.mapreduce.journal import JobJournal
from repro.mapreduce.runtime import HadoopEngine, LocalCluster
from repro.obs.tracer import Tracer
from repro.workloads.clickstream import ClickStreamConfig, generate_clicks
from repro.workloads.per_user_count import per_user_count_job, per_user_count_onepass_job
from repro.workloads.sessionization import sessionization_job, sessionization_onepass_job

__all__ = ["CELLS", "run_cell", "dump", "diff"]

ENGINES = ("hadoop", "hop", "onepass")
WORKLOADS = ("sessionization", "per-user-count")
EXECUTORS = ("serial", "processes:2")

#: Fresh (stateful) plan per cell.  Task ids 0..n-1 and partitions 0..2
#: exist on the cluster below; ``fetch`` has one transient fetch fault and
#: one past the retry budget (the map re-executes) — pull shuffle only.
PLANS = {
    "clean": lambda: None,
    "empty": lambda: FaultPlan(),
    "kill": lambda: FaultPlan(map_failures={1: 1, 2: 2}, reduce_failures={0: 1}),
    "crash": lambda: FaultPlan(node_crashes={"node01": 2}),
    "slow": lambda: FaultPlan(slow_nodes={"node02": 4.0}),
    "fetch": lambda: FaultPlan(shuffle_failures={(0, 0): 1, (1, 1): 9}),
}

#: ``engine/workload/plan/executor``; the forced-backpressure HOP cells
#: carry ``serial+bp1`` as their executor.
CELLS = [
    f"{engine}/{workload}/{plan}/{executor}"
    for engine in ENGINES
    for workload in WORKLOADS
    for plan in PLANS
    for executor in (*EXECUTORS, *(("serial+bp1",) if engine == "hop" else ()))
]

_CLICKS = list(
    generate_clicks(ClickStreamConfig(num_clicks=6_000, num_users=300, num_urls=60, seed=2011))
)


def _digest(obj: Any) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def _job(engine: str, workload: str) -> Any:
    # Budgets small enough that the map side spills and the reduce side
    # merges from disk (or the hash tables spill) on 6 000 clicks.
    if engine == "onepass":
        if workload == "sessionization":
            config = OnePassConfig(
                num_reducers=3, mode="hybrid", map_side_combine=False,
                map_buffer_bytes=8 * 1024, reduce_memory_bytes=24 * 1024,
            )  # fmt: skip
            return sessionization_onepass_job("in", "out", config=config)
        config = OnePassConfig(num_reducers=3, mode="incremental", map_memory_bytes=8 * 1024)
        return per_user_count_onepass_job("in", "out", config=config)
    config = JobConfig(
        num_reducers=3, map_buffer_bytes=16 * 1024, reduce_buffer_bytes=24 * 1024, merge_factor=3
    )
    build = sessionization_job if workload == "sessionization" else per_user_count_job
    return build("in", "out", config=config)


def run_cell(cell: str) -> dict[str, Any]:
    """Run one cell on a fresh cluster; returns its deterministic record."""
    engine, workload, plan_name, executor = cell.split("/")
    executor, _, forced = executor.partition("+")
    cluster = LocalCluster(num_nodes=3, block_size=32 * 1024, replication=2)
    cluster.hdfs.write_records("in", _CLICKS)
    tracer = Tracer()
    with tempfile.TemporaryDirectory() as wal:
        journal = JobJournal(wal)
        kwargs: dict[str, Any] = {
            "fault_plan": PLANS[plan_name](),
            "executor": executor,
            "tracer": tracer,
            "journal": journal,
        }
        if engine == "hadoop":
            runner: Any = HadoopEngine(cluster, **kwargs)
        elif engine == "hop":
            hop = HOPConfig(granularity_records=300, **({"backpressure_bytes": 1} if forced else {}))
            runner = HOPEngine(cluster, hop_config=hop, **kwargs)
        else:
            runner = OnePassEngine(cluster, checkpoint_interval=4, **kwargs)
        result = runner.run(_job(engine, workload))
        records = [(rec.kind, rec.fields) for rec in journal.records]
    spans = [(s.name, s.cat, s.t0, s.t1, s.node, s.task, sorted(s.args.items())) for s in tracer.spans]
    events = [(e.name, e.cat, e.ts, e.node, e.task, sorted(e.args.items())) for e in tracer.events]
    return {
        "output": _digest(list(cluster.hdfs.read_records("out"))),
        "output_records": result.output_records,
        "counters": {
            name: value
            for name, value in sorted(result.counters.as_dict().items())
            if not name.startswith("time.")
        },
        "disks": {name: asdict(stats) for name, stats in sorted(cluster.disk_stats().items())},
        "leftover_files": sorted(
            f"{node}:{path}"
            for node, disk in cluster.intermediate_disks().items()
            for path in disk.list_files()
            if not path.startswith("hdfs/")
        ),
        "journal": {
            "sequence": [
                f"{kind}[{f.get('task', '')}:{f.get('partition', '')}:{f.get('node', '')}]"
                for kind, f in records
            ],
            "digest": _digest(records),
        },
        "spans": {
            "digest": _digest(spans),
            "by_name": dict(sorted(Counter(s[0] for s in spans).items())),
            "by_task": dict(sorted(Counter(f"{s[5] or '-'} {s[0]}" for s in spans).items())),
            "ticks": tracer.clock,
        },
        "events": {
            "digest": _digest(events),
            "by_name": dict(sorted(Counter(e[0] for e in events).items())),
        },
        "network_bytes": result.network_bytes,
        "snapshots": _digest(result.snapshots),
    }


def dump(cells: list[str] = CELLS) -> dict[str, Any]:
    return {cell: run_cell(cell) for cell in cells}


def _flatten(value: Any, prefix: str = "") -> dict[str, Any]:
    if isinstance(value, dict):
        out: dict[str, Any] = {}
        for key, inner in value.items():
            out.update(_flatten(inner, f"{prefix}.{key}" if prefix else str(key)))
        return out
    return {prefix: value}


def diff(a: dict[str, Any], b: dict[str, Any]) -> list[str]:
    """One line per (cell, field) that differs between two dumps."""
    lines = []
    for cell in sorted(a.keys() | b.keys()):
        fa, fb = _flatten(a.get(cell, {})), _flatten(b.get(cell, {}))
        for name in sorted(fa.keys() | fb.keys()):
            if fa.get(name) != fb.get(name):
                lines.append(f"{cell}  {name}: {fa.get(name)!r} -> {fb.get(name)!r}")
    return lines


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "--diff":
        with open(argv[1]) as fa, open(argv[2]) as fb:
            lines = diff(json.load(fa), json.load(fb))
        print("\n".join(lines) if lines else "identical")
        return 1 if lines else 0
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0], "w") as out:
        json.dump(dump(), out, indent=1, sort_keys=True)
        out.write("\n")
    print(f"{len(CELLS)} cells -> {argv[0]}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
