"""The structural facts the committed ``benchmarks/COUNTED.json`` carries.

``python -m benchmarks.counted --check`` fails on any row that moves, but
``--write`` re-records whatever the code does.  These tests read the
committed file (they run no job), so a re-record cannot bake in a
regression of these structural claims:

* a sanitizer that is not installed costs nothing: no cell calls ``repro.san``;
* a merge pass moves frames and the final merge decodes once: every
  sort-merge cell of a non-combining workload makes one ``dumps`` and one
  ``loads`` per map-output record (``userskew.hadoop`` makes three merge
  passes);
* the cyclic collector is paused per job: each run makes only the exit
  collection of generation 0.
"""

import json
from pathlib import Path

COUNTED = Path(__file__).resolve().parents[1] / "benchmarks" / "COUNTED.json"
ROWS = json.loads(COUNTED.read_text())["rows"]
SORT_MERGE_CELLS = [
    f"{workload}.{engine}"
    for workload in ("sessionize", "userskew", "invindex")
    for engine in ("hadoop", "hop")
]


def test_every_workload_and_engine_has_a_cell():
    assert sorted(ROWS) == sorted(
        f"{workload}.{engine}"
        for workload in ("sessionize", "pagefreq", "userskew", "invindex")
        for engine in ("hadoop", "hop", "onepass")
    )


def test_no_cell_calls_the_sanitizer():
    assert [cell for cell, row in ROWS.items() if "repro.san" in row["calls"]] == []


def test_sort_merge_cells_pickle_a_record_once():
    pickles = {cell: (ROWS[cell]["dumps_per_record"], ROWS[cell]["loads_per_record"])
               for cell in SORT_MERGE_CELLS}  # fmt: skip
    assert pickles == dict.fromkeys(SORT_MERGE_CELLS, (1.0, 1.0))


def test_a_job_makes_only_the_exit_collection():
    collections = {cell: row["gc_collections"] for cell, row in ROWS.items()}
    assert collections == dict.fromkeys(ROWS, [1, 0, 0])
