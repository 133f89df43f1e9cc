"""A ``FaultPlan`` is data the one loop consults, not a second engine.

A plan that injects nothing must not change what a run *is*: the same map
loop, attempt path, delivery routine and reduce path run with and without
one.  For Hadoop that means an empty plan is unobservable; for the push
engines the plan adds the replicated delivery log and nothing else.  The
runs are cells of the committed equivalence dump
(:mod:`tests.integration.engine_equiv`).
"""

import re

import pytest

from tests.integration.engine_equiv import _flatten, run_cell

#: What a delivery log adds to a run that loses nothing: its counters, and
#: the writes and clean-up deletes behind them (the log is never read).
LOG_FIELDS = {"counters.fault.staged.bytes", "counters.recovery.log.bytes"} | {
    f"disks.node{n:02d}.hdd.{field}"
    for n in range(3)
    for field in (
        "bytes_written", "write_ops", "deletes", "random_ops", "sequential_ops", "busy_time"
    )
}  # fmt: skip


def moved(a, b):
    """Flattened field names on which two cell records differ."""
    fa, fb = _flatten(a), _flatten(b)
    return {name for name in fa.keys() | fb.keys() if fa.get(name) != fb.get(name)}


def test_an_empty_plan_is_unobservable_on_hadoop():
    clean = run_cell("hadoop/sessionization/clean/serial")
    assert run_cell("hadoop/sessionization/empty/serial") == clean


@pytest.mark.parametrize("engine", ["hop", "hop+bp1", "onepass"])
def test_an_empty_plan_adds_only_the_delivery_log_to_a_push_engine(engine):
    engine, _, forced = engine.partition("+")
    executor = "serial+bp1" if forced else "serial"
    clean = run_cell(f"{engine}/sessionization/clean/{executor}")
    planned = run_cell(f"{engine}/sessionization/empty/{executor}")
    assert planned["spans"]["by_task"] == clean["spans"]["by_task"]
    assert planned["journal"] == clean["journal"]
    assert planned["leftover_files"] == clean["leftover_files"] == []
    assert {"counters.fault.staged.bytes", "counters.recovery.log.bytes"} <= moved(
        clean, planned
    ) <= LOG_FIELDS


def test_hop_pushes_once_per_committed_map_and_never_for_a_killed_attempt():
    # Every chunk is staged (backpressure_bytes=1), so a delivery that ran
    # for a killed attempt would charge, or leave behind, a hop-stage/ file.
    clean = run_cell("hop/sessionization/clean/serial+bp1")
    killed = run_cell("hop/sessionization/kill/serial+bp1")
    assert killed["output"] == clean["output"]
    assert killed["counters"]["map.task.retries"] == 3
    committed = re.findall(r"map-commit\[(\d+):", " ".join(killed["journal"]["sequence"]))
    pushes = {k: n for k, n in killed["spans"]["by_task"].items() if k.endswith(" push")}
    assert pushes == {f"map:{int(task):05d} push": 1 for task in committed}
    assert killed["counters"]["map.spill.bytes"] == clean["counters"]["map.spill.bytes"] > 0
    assert killed["leftover_files"] == []
