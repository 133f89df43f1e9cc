"""Command line: ``python -m benchmarks.e2e {run,measure,compare,spec}``."""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Any

from benchmarks.e2e import harness, report
from benchmarks.e2e.metrics import RUN_SECONDS, benchmark_json
from benchmarks.e2e.workloads import WORKLOADS, by_name

DEFAULT_SEED = 2011


def _measure(args: argparse.Namespace) -> int:
    """One workload, one pass, in this process (the driver's protocol)."""
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Hash randomisation must be off before the interpreter starts.
        sys.stdout.flush()
        env = os.environ | {"PYTHONHASHSEED": "0"}
        os.execve(sys.executable, [sys.executable, "-m", "benchmarks.e2e", *sys.argv[1:]], env)
    workload = by_name(args.workload)
    if args.trace:
        from benchmarks.e2e import probes

        result = probes.measure_layers(workload, args.seed)
        report.print_layers(result)
    else:
        result = harness.measure_end_to_end(workload, args.seed, args.seconds)
        report.print_end_to_end(result)
    if args.detail:
        Path(args.detail).parent.mkdir(parents=True, exist_ok=True)
        Path(args.detail).write_text(json.dumps(result, indent=1, sort_keys=True))
    if result["failures"]:
        # No result line: a run with a wrong or failed cell is not a measurement.
        return 1
    print(report.contract_line(result))
    return 0


def _run(args: argparse.Namespace) -> int:
    """Every workload, both passes, one fresh child process per pass."""
    harness.OUT_DIR.mkdir(exist_ok=True)
    names = args.workload or [w.name for w in WORKLOADS]
    results: dict[str, Any] = {
        "schema": harness.SCHEMA,
        "seed": args.seed,
        "end_to_end": {},
        "layers": {},
    }
    status = 0
    for index, workload in enumerate(WORKLOADS):
        if workload.name not in names:
            continue
        for trace, key in ((0, "end_to_end"), (1, "layers")):
            detail = harness.OUT_DIR / f"detail-{workload.name}-{key}.json"
            child = subprocess.run(
                [sys.executable, "-m", "benchmarks.e2e", "measure",
                 "--workload", workload.name, "--seed", str(args.seed + index),
                 "--seconds", str(args.seconds), "--trace", str(trace),
                 "--detail", str(detail)],
                cwd=harness.REPO_ROOT,
                env=os.environ | {"PYTHONHASHSEED": "0"},
                check=False,
            )  # fmt: skip
            status |= child.returncode
            if detail.exists():
                results[key][workload.name] = json.loads(detail.read_text())
                detail.unlink()
    passes = [r for key in ("end_to_end", "layers") for r in results[key].values()]
    results["ops_attempted"] = sum(r["ops_attempted"] for r in results["end_to_end"].values())
    results["ops_failed"] = sum(r["ops_failed"] for r in results["end_to_end"].values())
    results["noisy"] = any(r["noisy"] for r in passes)
    out = Path(args.out) if args.out else harness.OUT_DIR / f"results-seed{args.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=1, sort_keys=True))
    print(
        f"\nops_attempted = {results['ops_attempted']}  ops_failed = {results['ops_failed']}"
        f"  noisy = {results['noisy']}  ->  {out}"
    )
    return 1 if status or any(r["failures"] for r in passes) else 0


def _compare(args: argparse.Namespace) -> int:
    a = json.loads(Path(args.a).read_text())
    b = json.loads(Path(args.b).read_text())
    return report.compare(a, b)


def _spec(_args: argparse.Namespace) -> int:
    print(json.dumps(benchmark_json([(w.name, w.why) for w in WORKLOADS]), indent=2))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="all workloads: end-to-end pass, then traced pass")
    run.add_argument("--seed", type=int, default=DEFAULT_SEED, help="workload i uses seed+i")
    run.add_argument("--workload", action="append", choices=[w.name for w in WORKLOADS])
    run.add_argument("--seconds", type=float, default=0.0,
                     help="keep adding rounds beyond the minimum 5 while they fit in this")  # fmt: skip
    run.add_argument("--out", help="results file (default: out/results-seed<N>.json)")
    run.set_defaults(fn=_run)

    measure = sub.add_parser("measure", help="one workload, one pass; last line is JSON")
    measure.add_argument("--workload", required=True, choices=[w.name for w in WORKLOADS])
    measure.add_argument("--seed", type=int, default=DEFAULT_SEED)
    measure.add_argument("--seconds", type=float, default=RUN_SECONDS)
    measure.add_argument("--trace", type=int, choices=(0, 1), default=0)
    measure.add_argument("--detail", help="also write the full result as JSON here")
    measure.set_defaults(fn=_measure)

    compare = sub.add_parser("compare", help="B against baseline A; non-zero on a regression")
    compare.add_argument("a")
    compare.add_argument("b")
    compare.set_defaults(fn=_compare)

    spec = sub.add_parser("spec", help="print BENCHMARK.json as defined by metrics.py")
    spec.set_defaults(fn=_spec)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
