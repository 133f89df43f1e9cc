"""The ``repro sanitize`` subcommand.

Examples::

    python -m repro sanitize --workload per-user-count --engine onepass
    python -m repro sanitize --workload sessionization --engine hadoop \\
        --executor processes:2 --format sarif
    python -m repro sanitize --battery              # the detector must fire
    python -m repro sanitize --matrix               # clean 4x3x3 battery
    python -m repro sanitize --matrix --engine hop --write-baseline
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

__all__ = ["add_sanitize_parser", "cmd_sanitize"]


def _print_report(report, fmt: str) -> None:
    sys.stdout.write(report.format(fmt))


def _cmd_battery(args: argparse.Namespace) -> int:
    from repro.san.matrix import battery_ok, run_battery

    results = run_battery()
    for r in results:
        status = "ok" if r.ok else "FAIL"
        print(f"{r.detector}  fired {r.fired}  [{status}]")
        if not r.ok:
            for v in r.report.violations:
                print(f"    got {v.id}: {v.message}")
    if battery_ok(results):
        print(f"battery: all {len(results)} detector(s) fired exactly once")
        return 0
    print("battery: FAILED — a detector did not fire exactly once", file=sys.stderr)
    return 1


def _cmd_matrix(args: argparse.Namespace) -> int:
    from repro.san.matrix import (
        MATRIX_ENGINES,
        MATRIX_EXECUTORS,
        MATRIX_WORKLOADS,
        default_baseline_path,
        load_baseline,
        run_matrix,
        write_baseline,
    )

    workloads = (args.workload,) if args.workload else MATRIX_WORKLOADS
    engines = (args.engine,) if args.engine else MATRIX_ENGINES
    executors = (args.executor,) if args.executor else MATRIX_EXECUTORS
    results = run_matrix(
        records=args.records,
        nodes=args.nodes,
        workloads=workloads,
        engines=engines,
        executors=executors,
        progress=lambda leg: print(f"  {leg}", file=sys.stderr),
    )
    baseline_path = (
        Path(args.baseline) if args.baseline else default_baseline_path()
    )
    # A leg that raised has no digest to write: report it instead.
    if args.write_baseline and all(r.error is None for r in results):
        write_baseline(
            baseline_path, results, records=args.records, nodes=args.nodes
        )
        print(f"wrote {len(results)} leg digest(s) to {baseline_path}")
        return 0

    failed = 0
    baseline = {} if args.write_baseline else load_baseline(baseline_path)
    for r in results:
        problems = []
        if r.error is not None:
            problems.append(f"raised {type(r.error).__name__}: {r.error}")
        if not r.report.clean:
            problems.append(f"{len(r.report.violations)} violation(s)")
        if r.digest != r.sanitized_digest:
            problems.append("sanitized output diverges from unsanitized")
        pinned = baseline.get(r.leg)
        if r.error is None and pinned is not None and pinned != r.digest:
            problems.append("output digest drifted from san-baseline.json")
        if problems:
            failed += 1
            print(f"FAIL {r.leg}: {'; '.join(problems)}")
            if r.error is None:
                sys.stdout.write(r.report.format("terminal"))
        else:
            print(f"ok   {r.leg}")
    if failed:
        print(f"matrix: {failed}/{len(results)} leg(s) failed", file=sys.stderr)
        return 1
    print(f"matrix: all {len(results)} leg(s) sanitizer-clean and byte-identical")
    return 0


def _cmd_single(args: argparse.Namespace) -> int:
    from repro.san.matrix import run_leg

    detectors = tuple(args.detectors.split(",")) if args.detectors else None
    result = run_leg(
        args.workload,
        args.engine,
        args.executor or "serial",
        records=args.records,
        nodes=args.nodes,
        detectors=detectors,
    )
    _print_report(result.report, args.format)
    status = 0
    if not result.report.clean:
        status = 1
    if result.digest != result.sanitized_digest:
        print(
            f"FAIL: sanitized output diverges from unsanitized "
            f"({result.sanitized_digest[:12]} != {result.digest[:12]})",
            file=sys.stderr,
        )
        status = 1
    return status


def cmd_sanitize(args: argparse.Namespace) -> int:
    if args.battery:
        return _cmd_battery(args)
    if args.matrix:
        return _cmd_matrix(args)
    if not args.workload:
        raise SystemExit("sanitize: --workload is required (or use --battery/--matrix)")
    return _cmd_single(args)


def add_sanitize_parser(sub: argparse._SubParsersAction) -> None:
    from repro.cli import ENGINES
    from repro.workloads import WORKLOADS

    p = sub.add_parser(
        "sanitize",
        help="run a workload under the runtime race sanitizer",
        description="reprosan: the runtime kernel-state race detector "
        "(see docs/SANITIZERS.md).",
    )
    p.add_argument("--workload", choices=WORKLOADS, default=None)
    p.add_argument("--engine", choices=ENGINES, default=None)
    p.add_argument(
        "--executor",
        default=None,
        help="task executor: serial (default), threads[:N], or processes[:N]",
    )
    p.add_argument("--records", type=int, default=2_000)
    p.add_argument("--nodes", type=int, default=3)
    p.add_argument(
        "--format", choices=("terminal", "json", "sarif"), default="terminal"
    )
    p.add_argument(
        "--detectors",
        default=None,
        metavar="NAMES",
        help="comma-separated detector subset: race (default: all)",
    )
    p.add_argument(
        "--battery",
        action="store_true",
        help="run the synthetic-violation battery: the detector must fire "
        "exactly once",
    )
    p.add_argument(
        "--matrix",
        action="store_true",
        help="run the clean workload x engine x executor matrix: every leg "
        "must be violation-free and byte-identical (restrict with "
        "--workload/--engine/--executor)",
    )
    p.add_argument(
        "--write-baseline",
        action="store_true",
        help="with --matrix: write the leg digests to san-baseline.json",
    )
    p.add_argument(
        "--baseline",
        default=None,
        metavar="PATH",
        help="baseline file (default: <root>/san-baseline.json)",
    )
    p.set_defaults(fn=cmd_sanitize)
