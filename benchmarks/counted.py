"""Counted rows beside the timed benchmark: pickle calls per map-output
record, Python calls per package and cyclic-GC collections per job.

Runs each of the four ``benchmarks.e2e`` workloads on each engine once,
serially, on the seed-0 dataset, with ``PYTHONHASHSEED=0``, and counts the
calls made to ``pickle.dumps`` and ``pickle.loads`` while the engine runs,
less the input decode (a ``loads`` per pickle frame of the input blocks,
one per write chunk) and the output encode (a ``dumps`` per frame of the
output blocks, one per reduce output block), both counted with
:func:`repro.io.frame_count`.  Each cell also
records ``gc_collections``: the collections of generations 0, 1 and 2 the
run made (``gc.get_stats()`` deltas over ``run()``, after a full
``gc.collect()``).  These counts repeat exactly on any host, so
``benchmarks/COUNTED.json`` commits them.

``calls`` counts the ``call`` events ``sys.setprofile`` sees over ``run()``
in ``repro`` code (Python functions and generator resumptions; C functions
and callees outside ``repro`` are not counted), keyed by the callee's
``repro.<package>``, with ``calls_per_record`` the same per map-output
record.  They repeat exactly on one Python minor version, but not across
versions: 3.12 inlines list, dict and set comprehensions (PEP 709), so
each stops being a call.  ``--check`` and ``--diff`` therefore compare
them only when the run's Python is the one the file is stamped with.

From the repository root, ``PYTHONPATH=src python -m benchmarks.counted``
prints the rows; ``--write`` re-records the file, ``--diff`` prints each
row that moved and ``--check`` also exits 1 on any move.  ``--top N``
prints the rows and, under each, its ``N`` busiest ``repro`` functions by
the same ``call`` events (module, qualified name and first line; not
recorded in the file).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pickle
import sys
from pathlib import Path
from typing import Any

from benchmarks.e2e.harness import load_cluster
from benchmarks.e2e.workloads import WORKLOADS
from repro.core.engine import OnePassEngine
from repro.io import frame_count
from repro.mapreduce.counters import C
from repro.mapreduce.hop import HOPEngine
from repro.mapreduce.runtime import HadoopEngine

COUNTED = Path(__file__).resolve().parent / "COUNTED.json"
ENGINES = {"hadoop": HadoopEngine, "hop": HOPEngine, "onepass": OnePassEngine}
SEED = 0
#: row fields that only repeat on the Python minor version COUNTED.json was recorded on
PER_INTERPRETER = ("calls", "calls_per_record")


def frames(cluster: Any, path: str) -> int:
    """The pickle frames in ``path``'s blocks."""
    hdfs = cluster.hdfs
    return sum(frame_count(hdfs.read_block_bytes(b.block_id)) for b in hdfs.namenode.blocks_of(path))


def count_cell(workload: Any, engine: str, records: list[Any], top: int = 0) -> dict[str, Any]:
    """One serial run of ``engine`` on ``workload``; its pickle row, plus
    its ``top`` busiest ``repro`` functions under ``"top"`` when asked."""
    job = workload.onepass_job(True) if engine == "onepass" else workload.mr_job(True)
    cluster = load_cluster(records)
    calls = {"dumps": 0, "loads": 0}
    dumps, loads = pickle.dumps, pickle.loads

    def counting(fn: Any, name: str) -> Any:
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    functions: dict[tuple[str, Any], int] = {}

    def profile(frame: Any, event: str, arg: Any) -> None:
        if event == "call":
            key = (frame.f_globals.get("__name__", ""), frame.f_code)
            functions[key] = functions.get(key, 0) + 1

    runner = ENGINES[engine](cluster)
    gc.collect()
    gc0 = [g["collections"] for g in gc.get_stats()]
    pickle.dumps, pickle.loads = counting(dumps, "dumps"), counting(loads, "loads")
    sys.setprofile(profile)
    try:
        counters = runner.run(job).counters
    finally:
        sys.setprofile(None)
        pickle.dumps, pickle.loads = dumps, loads
    collections = [g["collections"] - n for g, n in zip(gc.get_stats(), gc0)]
    packages: dict[str, int] = {}
    for (name, _code), k in functions.items():
        parts = name.split(".")
        if parts[0] == "repro":
            package = ".".join(parts[:2])
            packages[package] = packages.get(package, 0) + k
    n = int(counters[C.MAP_OUTPUT_RECORDS])
    row = {
        "map_output_records": n,
        "dumps": calls["dumps"] - frames(cluster, job.output_path),
        "loads": calls["loads"] - frames(cluster, job.input_path),
        "gc_collections": collections,
        "calls": dict(sorted(packages.items())),
    }
    if top:
        busiest = sorted(
            ((k, f"{name}:{code.co_qualname}:{code.co_firstlineno}")
             for (name, code), k in functions.items() if name.split(".")[0] == "repro"),
            key=lambda kf: (-kf[0], kf[1]),
        )  # fmt: skip
        row["top"] = busiest[:top]
    return row | {
        "dumps_per_record": round(row["dumps"] / max(1, n), 4),
        "loads_per_record": round(row["loads"] / max(1, n), 4),
        "calls_per_record": {p: round(k / max(1, n), 4) for p, k in row["calls"].items()},
    }


def count_all(top: int = 0) -> dict[str, Any]:
    rows = {}
    for workload in WORKLOADS:
        records = workload.records(SEED)
        for engine in ENGINES:
            rows[f"{workload.name}.{engine}"] = count_cell(workload, engine, records, top)
    return {"python": f"{sys.version_info[0]}.{sys.version_info[1]}", "seed": SEED, "rows": rows}


def moved(old: dict[str, Any], new: dict[str, Any]) -> list[str]:
    """One line per row that differs between two sets of rows, naming
    each field that moved."""
    def flat(row: dict[str, Any]) -> dict[str, Any]:
        out = {}
        for f, v in row.items():
            out |= {f"{f}[{k}]": x for k, x in v.items()} if isinstance(v, dict) else {f: v}
        return out

    lines = []
    for cell in sorted(old.keys() | new.keys()):
        a, b = flat(old.get(cell, {})), flat(new.get(cell, {}))
        fields = [f"{f} {a.get(f)} -> {b.get(f)}" for f in sorted(a | b) if a.get(f) != b.get(f)]
        if fields:
            lines.append(f"{cell}: " + ", ".join(fields))
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--write", action="store_true", help=f"re-record {COUNTED.name}")
    mode.add_argument("--check", action="store_true", help="exit 1 unless every row is equal")
    mode.add_argument("--diff", action="store_true", help="print each row that moved")
    mode.add_argument("--top", type=int, default=0, metavar="N",
                      help="also print each cell's N busiest repro functions by calls")  # fmt: skip
    args = parser.parse_args()
    if args.top < 0:
        parser.error("--top must be >= 0")
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Hash randomisation must be off before the interpreter starts.
        sys.stdout.flush()
        env = os.environ | {"PYTHONHASHSEED": "0"}
        os.execve(sys.executable, [sys.executable, "-m", "benchmarks.counted", *sys.argv[1:]], env)
    result = count_all(args.top)
    if args.write:
        COUNTED.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
        return 0
    if not (args.check or args.diff):
        for cell, row in result["rows"].items():
            print(f"{cell:20} {row['dumps_per_record']:7.4f} dumps {row['loads_per_record']:7.4f} loads"
                  f" per record ({row['map_output_records']} records);"
                  f" gc collections {row['gc_collections']};"
                  f" {sum(row['calls'].values()) / max(1, row['map_output_records']):.2f} calls"
                  f" per record ({row['calls_per_record'].get('repro.core', 0.0):.2f} repro.core)")  # fmt: skip
            for k, function in row.get("top", []):
                print(f"  {k:9d} {k / max(1, row['map_output_records']):8.4f}/record  {function}")
        return 0
    committed = json.loads(COUNTED.read_text())
    old, new = committed["rows"], result["rows"]
    if committed["python"] != result["python"]:
        # Python call counts follow the interpreter; the pickle and GC counts do not.
        print(f"note: recorded on Python {committed['python']}, run on {result['python']};"
              f" {' and '.join(PER_INTERPRETER)} not compared")  # fmt: skip
        old, new = ({c: {f: v for f, v in row.items() if f not in PER_INTERPRETER}
                     for c, row in rows.items()} for rows in (old, new))  # fmt: skip
    lines = moved(old, new)
    print("\n".join([*lines, f"counted: {len(lines)} of {len(committed['rows'])} rows moved"]))
    return 1 if args.check and lines else 0


if __name__ == "__main__":
    raise SystemExit(main())
