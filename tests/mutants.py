"""Mutants of the real tree: which checker kills which bug.

Each mutant is a few exact substitutions into a copy of the repository,
one bug of a class the contracts name, judged by three gates (all with
``PYTHONHASHSEED=0``, so the table repeats): **T**, tier-1 minus the
tests that run lint or san themselves and the two that read source text;
**L**, the rule ids ``repro lint --format json`` finds; **S**, the SAN ids
``repro sanitize --matrix`` sees, plus ``digests`` (an output digest
moved), ``raised`` (a leg raised) and ``crash`` (the matrix did not
finish).  A lint rule earns its
place by a row T misses and it kills; a SAN detector by a row T and every
lint rule miss (:func:`unique_kills`).

    python -m tests.mutants           # print the table (two mutants at a time)
    python -m tests.mutants --check   # fail unless docs/STATIC_ANALYSIS.md holds it
    python -m tests.mutants --write   # paste it between the markers there
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DOC = ROOT / "docs" / "STATIC_ANALYSIS.md"
BEGIN, END = "<!-- mutants: kill-table -->", "<!-- /mutants -->"
HEADER = ("| # | mutant (site: edit) | T | L | S |", "| --- | --- | --- | --- | --- |")
MISS = "–"
#: Mutants run side by side: each gate is one single-threaded process.
JOBS = 2

#: The tests that run lint or san themselves, and the two that read source text.
T_EXCLUDE = tuple(f"--ignore=tests/{t}" for t in (
    "lint", "san", "integration/test_sanitizer_battery.py", "obs/test_counter_registry.py",
    "test_surface_audit.py", "test_mutant_table.py",
)) + ("--deselect=tests/integration/test_chaos.py::TestSanitizerInterplay",)

_FETCH_WITH = (
    '                with self.tracer.span(\n                    "fetch",\n'
    '                    "shuffle",\n                    node=rtask.node,\n'
    '                    task=f"reduce:{partition:03d}",\n'
    "                    cost=byte_cost(seg.nbytes),\n                    bytes=seg.nbytes,\n"
    "                    map_task=task_id,\n                ):\n"
    "                    rtask.accept_segment(seg.run, seg.nbytes)\n"
)
_FETCH_SPAN = _FETCH_WITH.split(":\n                    rtask")[0].replace("with ", "")
_KERNEL_TOP = '    job = ctx["job"]\n    return _push_map('

#: id -> (what the mutant does, ((path under src/repro, old, new), ...)).
MUTANTS: dict[str, tuple[str, tuple[tuple[str, str, str], ...]]] = {
    "M01": ("`sortmerge.py` `run_map_task`: `perf = time.time`",
            (("mapreduce/sortmerge.py", "    perf = time.perf_counter\n    t_collect", "    perf = time.time\n    t_collect"),)),
    "M02": ("`workloads/zipf.py`: `default_rng()` unseeded",
            (("workloads/zipf.py", "default_rng(seed)", "default_rng()"),)),
    "M03": ("`core/hotset.py` `_refresh`: iterate `resident - hot` unsorted",
            (("core/hotset.py", "in sorted(resident - hot, key=repr):", "in resident - hot:"),)),
    "M04": ("`hop.py` `_map_spec`: `PushMapSpec(task_id, lambda: node, data)`",
            (("mapreduce/hop.py", "PushMapSpec(task_id, node, data)", "PushMapSpec(task_id, lambda: node, data)"),)),
    "M05": ('`_push_map`: `chunks = ctx.setdefault("chunks", [])`',
            (("exec/kernels.py", "    chunks: list[tuple[int, list[tuple[Any, Any]], int]] = []\n",
              '    chunks = ctx.setdefault("chunks", [])\n'),)),
    "M06": ("`onepass_map_kernel` calls `register_kernel(...)`",
            (("exec/kernels.py", _KERNEL_TOP,
              '    register_kernel("onepass_map", onepass_map_kernel)\n' + _KERNEL_TOP),)),
    "M07": ("`driver._reduce_phase`: HDFS append before the `K_REDUCE_COMMIT` append",
            (("mapreduce/driver.py", "                journal.append(K_REDUCE_COMMIT,",
              "                if output:\n                    hdfs.append_block(job.output_path, output, "
              "writer_node=run.reducer_nodes[partition])\n                journal.append(K_REDUCE_COMMIT,"),
             ("mapreduce/driver.py", "            if output:\n                hdfs.append_block(",
              "            if output and partition in run.committed:\n                hdfs.append_block("))),
    "M08": ("`runtime._pull_partition`: fetch span entered, never exited",
            (("mapreduce/runtime.py", _FETCH_WITH,
              _FETCH_SPAN + ".__enter__()\n                rtask.accept_segment(seg.run, seg.nbytes)\n"),)),
    "M09": ("`hybrid_hash.finish`: drop `writer.close()`",
            (("core/hybrid_hash.py", "            writer.close()\n            self.counters", "            self.counters"),)),
    "M10": ("`hotset._refresh`: `C.HOT_EVICTED`", (("core/hotset.py", "C.HOT_EVICTIONS)", "C.HOT_EVICTED)"),)),
    "M11": ('`engine.py`: event `"hash.spilled"`',
            (("core/engine.py", '"hash.spill", "spill"', '"hash.spilled", "spill"'),)),
    "M12": ("`onepass_map_kernel`: `print(spec.task_id)`",
            (("exec/kernels.py", _KERNEL_TOP, "    print(spec.task_id)\n" + _KERNEL_TOP),)),
    "M13": ("`PushMapSpec` loses `slots=True` (not a hot-path module)",
            (("exec/kernels.py", "@dataclass(slots=True)\nclass PushMapSpec:", "@dataclass\nclass PushMapSpec:"),)),
    "M14": ("fetch span `__enter__()`, `__exit__` after the body, no `finally`",
            (("mapreduce/runtime.py", _FETCH_WITH,
              "                fetch_span = " + _FETCH_SPAN.lstrip() + "\n                fetch_span.__enter__()\n"
              "                rtask.accept_segment(seg.run, seg.nbytes)\n"
              "                fetch_span.__exit__(None, None, None)\n"),)),
    "M15": ("`faults.py`: `node_list = list(set(nodes))`",
            (("mapreduce/faults.py", "node_list = sorted(nodes)", "node_list = list(set(nodes))"),)),
    "M16": ("`map_slices` appends to a module-level list",
            (("mapreduce/sortmerge.py", "MAP_SLICE_RECORDS = 256\n", "MAP_SLICE_RECORDS = 256\n_SLICES: list[int] = []\n"),
             ("mapreduce/sortmerge.py", "        counters.inc(C.MAP_INPUT_RECORDS, len(chunk))\n",
              "        _SLICES.append(len(chunk))\n        counters.inc(C.MAP_INPUT_RECORDS, len(chunk))\n"))),
    "M17": ("`run_map_task`: `t_collect = 0.0 * time.time()`",
            (("mapreduce/sortmerge.py", "    t_collect = 0.0\n    n_in = 0", "    t_collect = 0.0 * time.time()\n    n_in = 0"),)),
    "M18": ("`onepass_map_kernel`: `spec.node = spec.node.upper()`",
            (("exec/kernels.py", _KERNEL_TOP, "    spec.node = spec.node.upper()\n" + _KERNEL_TOP),)),
    "M19": ("`AccountedStateTable` (hot-path `core/hash_tables.py`) loses `__slots__`",
            (("core/hash_tables.py", '    __slots__ = (\n        "aggregator",', '    _fields = (\n        "aggregator",'),)),
    "M20": ("`journal._load_segments`: segment read by a bare `open`, never closed",
            (("mapreduce/journal.py", '            with open(full, "rb") as fh:\n                data = fh.read()',
              '            fh = open(full, "rb")\n            data = fh.read()'),)),
    "M21": ("`PushMapSpec` gains a `guard` field; one-pass `_map_spec` passes a `threading.Lock()`",
            (("exec/kernels.py", "class PushMapSpec:\n    task_id: int\n    node: str\n    data: bytes\n",
              "class PushMapSpec:\n    task_id: int\n    node: str\n    data: bytes\n    guard: Any = None\n"),
             ("core/engine.py", "        return PushMapSpec(task_id, node, data)",
              "        import threading\n\n        return PushMapSpec(task_id, node, data, threading.Lock())"))),
    "M22": ("`onepass_map_kernel` takes a module-level `threading.Lock()` around its job look-up",
            (("exec/kernels.py", "from repro.obs.tracer import task_tracer\n",
              "from repro.obs.tracer import task_tracer\nimport threading\n\n_GUARD = threading.Lock()\n"),
             ("exec/kernels.py", _KERNEL_TOP, "    with _GUARD:\n    " + _KERNEL_TOP))),
    "M23": ("`_pull_partition`: fetch span opened before `shuffle.fetch`; a planned fetch fault skips its exit",
            (("mapreduce/runtime.py", "                try:\n                    seg = shuffle.fetch(task_id, partition)\n",
              '                fetching = self.tracer.span("fetch", "shuffle", node=rtask.node, '
              'task=f"reduce:{partition:03d}", map_task=task_id)\n                fetching.__enter__()\n'
              "                try:\n                    seg = shuffle.fetch(task_id, partition)\n"),
             ("mapreduce/runtime.py", _FETCH_WITH,
              "                fetching.set_cost(byte_cost(seg.nbytes))\n                fetching.set(bytes=seg.nbytes)\n"
              "                rtask.accept_segment(seg.run, seg.nbytes)\n"
              "                fetching.__exit__(None, None, None)\n"))),
    "M24": ("`recovery.py` log replay, record-count mismatch: `C.LOG_REPLICA_REJECTED`",
            (("mapreduce/recovery.py", "            if len(pairs) != entry.records:\n"
              "                self.counters.inc(C.LOG_REPLICAS_REJECTED)",
              "            if len(pairs) != entry.records:\n"
              "                self.counters.inc(C.LOG_REPLICA_REJECTED)"),)),
    "M25": ("`count_map_slice` (a workload slice mapper) appends to a module-level list",
            (("workloads/counting.py", '"reference_counts"]\n', '"reference_counts"]\n_SLICES: list[int] = []\n'),
             ("workloads/counting.py", "        n = len(records)\n", "        n = len(records)\n        _SLICES.append(n)\n"))),
}


#: The commit to restore a retired checker from -> the checkers retired
#: after it -> the mutants that stand in for them: T kills each rule's, T
#: or a surviving rule each detector's.  The day one is missed, restore
#: the checker from its commit.
RESTORE_FROM = {
    "7462c2d": {
        "REP004": ("M10", "M24"), "REP102": ("M04",), "REP104": ("M11",),
        "SAN001": ("M01", "M17"), "SAN006": ("M03", "M15"), "SAN102": ("M04",),
        "SAN103": ("M08", "M09", "M20"), "SAN202": ("M21", "M22"), "SAN205": ("M14", "M23"),
    },
    # Runtime checks took these over: the open-span count (M14, M23), the
    # two-hash-seed digest (M03, M15), the chaos sweep's commit-before-emit
    # invariant (M07) and ResourceWarning as an error in tier-1 (M20).
    "8de76b5": {"REP005": ("M14", "M23"), "REP006": ("M03", "M15"), "REP204": ("M07",), "REP205": ("M20",)},
    # Kernel isolation checked at run time (tests/exec/test_module_state.py):
    # a name registers once (M06), a job leaves module state as it found it
    # (M16), no module holds a fork-unsafe resource (M22); the processes
    # executor already pickles every spec (M21).
    "dde82f2": {"REP201": ("M06", "M16"), "REP202": ("M21", "M22")},
}
RETIRED = {checker: mutants for group in RESTORE_FROM.values() for checker, mutants in group.items()}


def apply(src: Path, mutant: str) -> None:
    """Apply one mutant's substitutions to the ``src/repro`` tree under ``src``."""
    for rel, old, new in MUTANTS[mutant][1]:
        path = src / rel
        text = path.read_text()
        if text.count(old) != 1:
            raise ValueError(f"{mutant}: site in {rel} matches {text.count(old)} times, not once")
        path.write_text(text.replace(old, new))


def _run(cmd: list[str], cwd: Path, timeout: int) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": "src", "PYTHONHASHSEED": "0"}
    try:
        return subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        return subprocess.CompletedProcess(cmd, -1, str(exc.stdout or ""), "timeout")


def gates(mutant: str) -> tuple[str, str, str]:
    """(T, L, S) cells for one mutant, run in a fresh copy of the repository."""
    with tempfile.TemporaryDirectory(prefix=f"mutant-{mutant}-") as tmp:
        tree = Path(tmp) / "repo"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(".git", "__pycache__", "*.egg-info"))
        apply(tree / "src" / "repro", mutant)
        py = sys.executable
        t = _run([py, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *T_EXCLUDE], tree, 1800)
        lint = _run([py, "-m", "repro", "lint", "--format", "json"], tree, 300)
        rules = {f["rule"] for f in json.loads(lint.stdout)["findings"]}
        san = _run([py, "-m", "repro", "sanitize", "--matrix"], tree, 900)
        out = san.stdout + san.stderr
        seen = set(re.findall(r"\bSAN\d{3}\b", out))
        if "diverges" in out or "drifted" in out:
            seen.add("digests")
        if re.search(r"^FAIL \S+: raised ", san.stdout, re.M):
            seen.add("raised")
        if san.returncode and "matrix:" not in san.stderr:
            seen.add("crash")
    cell = lambda ids: ", ".join(sorted(ids)) or MISS  # noqa: E731
    return ("kill" if t.returncode else MISS), cell(rules), cell(seen)


def render(results: dict[str, tuple[str, str, str]]) -> list[str]:
    return [*HEADER, *(f"| {m} | {MUTANTS[m][0]} | {' | '.join(results[m])} |" for m in sorted(results))]


def committed_rows(doc: Path = DOC) -> list[str]:
    text = doc.read_text()
    return text[text.index(BEGIN) + len(BEGIN) : text.index(END)].strip().splitlines()


def parse(rows: list[str]) -> dict[str, tuple[str, set[str], set[str]]]:
    """Table rows -> {mutant: (T cell, L ids, S ids)}."""
    out = {}
    for row in rows[len(HEADER) :]:
        cells = [c.strip() for c in row.strip().strip("|").split("|")]
        ids = lambda cell: set() if cell == MISS else set(cell.split(", "))  # noqa: E731
        out[cells[0]] = (cells[-3], ids(cells[-2]), ids(cells[-1]))
    return out


def unique_kills(table: dict[str, tuple[str, set[str], set[str]]]) -> dict[str, list[str]]:
    """Checker id -> the mutants only it (and its peers on the row) kill:
    a rule where T misses, a SAN id where T and every lint rule miss."""
    out: dict[str, list[str]] = {}
    for mutant, (t, rules, sans) in sorted(table.items()):
        if t != MISS:
            continue
        for checker in rules | (set() if rules else {s for s in sans if s.startswith("SAN")}):
            out.setdefault(checker, []).append(mutant)
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="python -m tests.mutants", description=__doc__.split("\n\n")[0])
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--check", action="store_true", help="fail unless the committed table repeats")
    mode.add_argument("--write", action="store_true", help="paste the table into the doc")
    args = ap.parse_args(argv)
    start = time.perf_counter()

    def one(mutant: str) -> tuple[str, tuple[str, str, str]]:
        cells = gates(mutant)
        print(f"{mutant}: T {cells[0]}  L {cells[1]}  S {cells[2]}", file=sys.stderr, flush=True)
        return mutant, cells

    with ThreadPoolExecutor(max_workers=JOBS) as pool:
        rows = render(dict(pool.map(one, MUTANTS)))
    print("\n".join(rows))
    print(f"{len(MUTANTS)} mutants in {time.perf_counter() - start:.0f} s", file=sys.stderr)
    if args.write:
        text = DOC.read_text()
        head, tail = text[: text.index(BEGIN) + len(BEGIN)], text[text.index(END) :]
        DOC.write_text(head + "\n" + "\n".join(rows) + "\n" + tail)
    if args.check and rows != committed_rows():
        print("kill table differs from docs/STATIC_ANALYSIS.md", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
