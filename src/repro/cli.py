"""Command-line interface: ``python -m repro <command> ...``.

Three commands cover the repository's everyday uses without writing code:

* ``run``      — execute one of the paper's workloads on a real engine at
  laptop scale and print its counters;
* ``simulate`` — replay a workload at paper scale in the cluster simulator,
  print the figure sparklines, optionally export the series for plotting;
* ``compare``  — run the same workload on the sort-merge baseline and the
  one-pass engine and print the §V-style comparison.

A fourth command, ``trace``, runs a workload with the tracing subsystem
on and prints (or writes) the span timeline; ``run`` and ``compare`` take
the same ``--trace``/``--trace-format`` flags to capture traces alongside
their normal output.  A fifth, ``lint``, runs the repo-specific static
analysis (``docs/STATIC_ANALYSIS.md``) over the source tree.  A sixth,
``analyze``, derives the performance report (critical path, barrier
stalls, skew, metrics) from a saved trace file or journal directory;
``run`` and ``compare`` take ``--analyze`` to print it inline.

Examples::

    python -m repro run --workload page-frequency --engine onepass --records 50000
    python -m repro simulate --workload sessionization --engine hadoop --ssd
    python -m repro compare --workload per-user-count --records 100000
    python -m repro simulate --workload inverted-index --engine onepass \
        --export-dir out/
    python -m repro trace --workload sessionization --engine hadoop
    python -m repro run --workload sessionization --engine hadoop \
        --trace out.json --trace-format chrome
    python -m repro analyze out.json --format terminal
    python -m repro run --workload per-user-count --engine onepass --analyze
    python -m repro lint src/ --format json
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Sequence

from repro.analysis.series import sparkline
from repro.analysis.tables import format_table, human_bytes, human_time
from repro.workloads import WORKLOADS, paper_cell

ENGINES = ("hadoop", "hop", "onepass")


def _run_real(
    workload: str,
    engine: str,
    records: int,
    nodes: int,
    executor: str | None = None,
    tracer: Any = None,
    journal: Any = None,
) -> Any:
    cluster, engine_cls, job = paper_cell(workload, engine, records, nodes)
    return engine_cls(cluster, executor=executor, tracer=tracer, journal=journal).run(job)


def _apply_log_level(args: argparse.Namespace) -> None:
    if getattr(args, "log_level", None):
        from repro.obs.log import set_level

        set_level(args.log_level)


def _maybe_write_trace(path: str | None, fmt: str, result: Any) -> None:
    """Write ``result``'s trace to ``path``, if one was asked for (run/compare/trace)."""
    if not path:
        return
    from repro.obs.export import write_trace

    tracer = result.trace
    write_trace(path, fmt, tracer.spans, tracer.events, job_name=result.job_name)
    print(f"wrote {fmt} trace to {path}")


def _print_counters(result: Any, title: str) -> None:
    c = result.counters
    print(
        format_table(
            ("counter", "value"),
            [
                ("wall time", human_time(result.wall_time)),
                ("map input records", int(c["map.input.records"])),
                ("map output records", int(c["map.output.records"])),
                ("sorted records", int(c["sort.records"])),
                ("hash probes", int(c["hash.probes"])),
                ("shuffle", human_bytes(c["shuffle.bytes"])),
                ("reduce spill", human_bytes(c["reduce.spill.bytes"])),
                ("merge reads", human_bytes(c["merge.read.bytes"])),
                ("output records", result.output_records),
            ],
            title=title,
        )
    )


def _print_analysis(tracer: Any, job_name: str) -> None:
    """Print the analyzer's terminal report for a live traced run."""
    from repro.obs.analyze import analyze_tracer, render_text

    print()
    print(render_text(analyze_tracer(tracer, job_name=job_name)), end="")


def cmd_run(args: argparse.Namespace) -> int:
    _apply_log_level(args)
    tracer = None
    if args.trace or args.analyze:
        from repro.obs.tracer import Tracer

        tracer = Tracer()
    journal = None
    if args.journal:
        from repro.mapreduce.journal import K_RUN_CONFIG, JobJournal

        journal = JobJournal(args.journal)
        if journal.resume_state().run_config is None:
            journal.append(
                K_RUN_CONFIG,
                workload=args.workload,
                engine=args.engine,
                records=args.records,
                nodes=args.nodes,
            )
    result = _run_real(
        args.workload,
        args.engine,
        args.records,
        args.nodes,
        args.executor,
        tracer,
        journal,
    )
    _print_counters(
        result, f"{args.workload} on {args.engine} ({args.records} records)"
    )
    _maybe_write_trace(args.trace, args.trace_format, result)
    if args.analyze:
        _print_analysis(tracer, result.job_name)
    return 0


def cmd_resume(args: argparse.Namespace) -> int:
    """Re-run a journalled job, skipping everything already committed."""
    from repro.mapreduce.journal import JobJournal

    _apply_log_level(args)
    journal = JobJournal(args.journal)
    cfg = journal.resume_state().run_config
    if cfg is None:
        raise SystemExit(
            f"{args.journal}: no run-config record; create the journal with "
            f"'repro run --journal {args.journal} ...'"
        )
    result = _run_real(
        cfg["workload"], cfg["engine"], cfg["records"], cfg["nodes"], journal=journal
    )
    _print_counters(
        result,
        f"resumed {cfg['workload']} on {cfg['engine']} ({cfg['records']} records)",
    )
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    """Crashpoint sweep: crash at journal-append sites, resume, verify."""
    import os
    import shutil
    import tempfile

    from repro.testing import ChaosTarget, CrashpointInvariantError, run_crashpoint_sweep

    def cell() -> tuple[Any, Any, Any]:
        return paper_cell(args.workload, args.engine, args.records, args.nodes)

    engine_cls = cell()[1]
    target = ChaosTarget(
        name=f"{args.workload}/{args.engine}",
        make_cluster=lambda: cell()[0],
        make_engine=lambda cluster, journal: engine_cls(
            cluster, executor=args.executor, journal=journal
        ),
        make_job=lambda: cell()[2],
    )
    workdir = args.workdir or tempfile.mkdtemp(prefix="repro-chaos-")
    crash_modes = ("after", "torn") if args.crash_mode == "both" else (args.crash_mode,)
    try:
        report = run_crashpoint_sweep(
            target,
            workdir,
            mode=args.mode,
            samples=args.samples,
            seed=args.seed,
            crash_modes=crash_modes,
        )
    except CrashpointInvariantError as err:
        if args.artifacts:
            os.makedirs(args.artifacts, exist_ok=True)
            shutil.copytree(
                err.journal_dir,
                os.path.join(args.artifacts, os.path.basename(err.journal_dir)),
                dirs_exist_ok=True,
            )
            repro_path = os.path.join(args.artifacts, "repro.txt")
            with open(repro_path, "w", encoding="utf-8") as fh:
                fh.write(
                    f"python -m repro chaos --workload {args.workload} "
                    f"--engine {args.engine} --records {args.records} "
                    f"--nodes {args.nodes} --mode {args.mode} "
                    f"--samples {args.samples} --seed {args.seed} "
                    f"--crash-mode {err.crash_mode}\n\n{err}\n"
                )
            print(f"saved failing journal and repro to {args.artifacts}", file=sys.stderr)
        print(f"FAIL: {err}", file=sys.stderr)
        return 1
    else:
        print(report.summary())
        if not args.workdir:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Run one workload with tracing on; print or write the timeline."""
    from repro.obs.export import summary_text
    from repro.obs.tracer import Tracer

    _apply_log_level(args)
    tracer = Tracer()
    result = _run_real(
        args.workload, args.engine, args.records, args.nodes, args.executor, tracer
    )
    if args.out:
        _maybe_write_trace(args.out, args.format, result)
    else:
        print(summary_text(tracer.spans, tracer.events, job_name=result.job_name), end="")
    return 0


def _spec_from_args(args: argparse.Namespace):
    from repro.simulator.calibration import ClusterSpec

    return ClusterSpec(
        with_ssd=args.ssd,
        storage_nodes=5 if args.separate_storage else 0,
    )


def cmd_simulate(args: argparse.Namespace) -> int:
    from repro.simulator.calibration import GB, PAPER_WORKLOADS
    from repro.simulator.pipelines import HadoopPipeline, HOPPipeline, OnePassPipeline

    profile = PAPER_WORKLOADS[args.workload]
    if args.input_gb:
        profile = profile.scaled(int(args.input_gb * GB))
    spec = _spec_from_args(args)
    pipeline_cls = {
        "hadoop": HadoopPipeline,
        "hop": HOPPipeline,
        "onepass": OnePassPipeline,
    }[args.engine]
    result = pipeline_cls(spec, profile, metric_bucket=args.bucket).run()

    print(
        f"{args.workload} on {args.engine}: "
        f"{human_time(result.makespan)} over {spec.nodes} nodes "
        f"({profile.input_bytes / GB:.0f} GB input)"
    )
    _times, series = result.task_log.counts_series(args.bucket)
    for phase in ("map", "shuffle", "merge", "reduce"):
        if series[phase].max() > 0:
            print(f"  {phase:7s} tasks {sparkline(series[phase], width=60)}")
    s = result.series
    print(f"  cpu util      {sparkline(s.cpu_utilization, width=60)}")
    print(f"  cpu iowait    {sparkline(s.cpu_iowait, width=60)}")
    print(f"  disk reads    {sparkline(s.disk_read_bytes_per_s, width=60)}")
    t = result.totals
    print(
        f"  reduce-side writes {human_bytes(t.reduce_spill_bytes + t.merge_write_bytes)}, "
        f"merge passes {t.merge_passes}, shuffle {human_bytes(t.shuffle_bytes)}"
    )
    if args.export_dir:
        from repro.analysis.export import write_run_bundle

        for path in write_run_bundle(result, args.export_dir):
            print(f"  wrote {path}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    import time

    _apply_log_level(args)
    rows = []
    results = {}
    tracers: dict[str, Any] = {}
    for engine, engine_name in (("sort-merge", "hadoop"), ("one-pass", "onepass")):
        tracer = None
        if args.trace or args.analyze:
            from repro.obs.tracer import Tracer

            tracer = Tracer()
        tracers[engine] = tracer
        cluster, engine_cls, job = paper_cell(
            args.workload, engine_name, args.records, args.nodes
        )
        t0 = time.process_time()
        result = engine_cls(cluster, tracer=tracer).run(job)
        cpu = time.process_time() - t0
        results[engine] = (result, cpu)
        if args.trace:
            stem, dot, ext = args.trace.rpartition(".")
            path = f"{stem}-{engine}{dot}{ext}" if dot else f"{args.trace}-{engine}"
            _maybe_write_trace(path, args.trace_format, result)
        c = result.counters
        rows.append(
            (
                engine,
                f"{cpu:.2f}s",
                human_time(result.wall_time),
                int(c["sort.records"]),
                human_bytes(c["reduce.spill.bytes"] + c["merge.write.bytes"]),
            )
        )
    print(
        format_table(
            ("engine", "process CPU", "wall", "sorted recs", "reduce-side writes"),
            rows,
            title=f"{args.workload}, {args.records} records",
        )
    )
    (sm, sm_cpu), (op, op_cpu) = results["sort-merge"], results["one-pass"]
    if sm_cpu > 0:
        print(
            f"\none-pass saves {1 - op_cpu / sm_cpu:.0%} CPU and "
            f"{1 - op.wall_time / sm.wall_time:.0%} wall time"
        )
    if args.analyze:
        from repro.obs.analyze import (
            analyze_tracer,
            diff_reports,
            render_delta_table,
            render_text,
        )

        reports = {
            engine: analyze_tracer(tracers[engine], job_name=engine)
            for engine in ("sort-merge", "one-pass")
        }
        for engine in ("sort-merge", "one-pass"):
            print()
            print(render_text(reports[engine]), end="")
        diff = diff_reports(reports["sort-merge"], reports["one-pass"])
        print()
        print(
            render_delta_table(
                diff["phases"], title="per-phase delta: sort-merge -> one-pass"
            )
        )
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    """Derive the performance report from a trace file or journal dir."""
    import os

    from repro.obs.analyze import (
        REPORT_FORMATS,
        analyze_journal,
        analyze_model,
        diff_reports,
        load_trace,
        render_delta_table,
        render_html,
        render_json,
        render_text,
    )

    if os.path.isdir(args.source):
        report = analyze_journal(args.source, detail=args.detail)
    else:
        report = analyze_model(load_trace(args.source))

    renderers = dict(zip(REPORT_FORMATS, (render_text, render_json, render_html)))
    text = renderers[args.format](report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.format} report to {args.out}")
    else:
        print(text, end="")

    if args.baseline:
        import json

        with open(args.baseline, "r", encoding="utf-8") as fh:
            base = json.load(fh)
        diff = diff_reports(base, report)
        print()
        print(render_delta_table(diff["phases"]))
        regressed = diff["regressed_phase"]
        if regressed:
            print(f"\nregressed phase: {regressed}")
        else:
            print("\nno phase regressed vs baseline")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="One-pass analytics reproduction: run workloads, "
        "simulate the paper's cluster, compare engines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_trace_flags(p: argparse.ArgumentParser) -> None:
        from repro.obs.export import TRACE_FORMATS

        p.add_argument(
            "--trace", default=None, metavar="PATH", help="capture a trace to PATH"
        )
        p.add_argument(
            "--trace-format",
            choices=TRACE_FORMATS,
            default="chrome",
            help="trace serialisation (default: chrome)",
        )
        p.add_argument(
            "--log-level",
            choices=("off", "error", "warn", "info", "debug"),
            default=None,
            help="structured logging to stderr (default: off)",
        )
        p.add_argument(
            "--analyze",
            action="store_true",
            help="print the trace-derived performance report (critical path, "
            "barrier stalls, skew) after the run",
        )

    p_run = sub.add_parser("run", help="run a workload on a real engine")
    p_run.add_argument("--workload", choices=WORKLOADS, required=True)
    p_run.add_argument("--engine", choices=ENGINES, default="onepass")
    p_run.add_argument("--records", type=int, default=50_000)
    p_run.add_argument("--nodes", type=int, default=3)
    p_run.add_argument(
        "--executor",
        default=None,
        help="task executor: serial (default), threads[:N], or processes[:N]",
    )
    p_run.add_argument(
        "--journal",
        default=None,
        metavar="DIR",
        help="write a crash-consistent job journal to DIR (resumable with "
        "'repro resume DIR')",
    )
    add_trace_flags(p_run)
    p_run.set_defaults(fn=cmd_run)

    p_resume = sub.add_parser(
        "resume", help="resume a journalled run, skipping committed work"
    )
    p_resume.add_argument("journal", help="journal directory from 'run --journal'")
    p_resume.add_argument(
        "--log-level",
        choices=("off", "error", "warn", "info", "debug"),
        default=None,
        help="structured logging to stderr (default: off)",
    )
    p_resume.set_defaults(fn=cmd_resume)

    p_chaos = sub.add_parser(
        "chaos", help="systematic crash-and-resume sweep over journal sites"
    )
    p_chaos.add_argument("--workload", choices=WORKLOADS, required=True)
    p_chaos.add_argument("--engine", choices=ENGINES, default="onepass")
    p_chaos.add_argument("--records", type=int, default=2_000)
    p_chaos.add_argument("--nodes", type=int, default=3)
    p_chaos.add_argument(
        "--executor",
        default=None,
        help="task executor: serial (default), threads[:N], or processes[:N]",
    )
    p_chaos.add_argument(
        "--mode",
        choices=("exhaustive", "sampled"),
        default="exhaustive",
        help="sweep every crash site or a seeded sample (default: exhaustive)",
    )
    p_chaos.add_argument(
        "--samples", type=int, default=8, help="sites per sweep in sampled mode"
    )
    p_chaos.add_argument(
        "--seed", type=int, default=0, help="site-sampling seed for --mode sampled"
    )
    p_chaos.add_argument(
        "--crash-mode",
        choices=("after", "torn", "both"),
        default="both",
        help="crash with the record durable, torn mid-write, or both (default)",
    )
    p_chaos.add_argument(
        "--workdir",
        default=None,
        metavar="DIR",
        help="keep per-site journals under DIR (default: temp dir, removed on pass)",
    )
    p_chaos.add_argument(
        "--artifacts",
        default=None,
        metavar="DIR",
        help="on failure, copy the offending journal and a repro command here",
    )
    p_chaos.set_defaults(fn=cmd_chaos)

    p_trace = sub.add_parser(
        "trace", help="run a workload with tracing on; print the timeline"
    )
    p_trace.add_argument("--workload", choices=WORKLOADS, required=True)
    p_trace.add_argument("--engine", choices=ENGINES, default="hadoop")
    p_trace.add_argument("--records", type=int, default=50_000)
    p_trace.add_argument("--nodes", type=int, default=3)
    p_trace.add_argument(
        "--executor",
        default=None,
        help="task executor: serial (default), threads[:N], or processes[:N]",
    )
    p_trace.add_argument(
        "--out", default=None, metavar="PATH", help="write instead of printing"
    )
    p_trace.add_argument(
        "--format",
        choices=("chrome", "jsonl", "summary"),
        default="chrome",
        help="serialisation for --out (default: chrome)",
    )
    p_trace.add_argument(
        "--log-level",
        choices=("off", "error", "warn", "info", "debug"),
        default=None,
        help="structured logging to stderr (default: off)",
    )
    p_trace.set_defaults(fn=cmd_trace)

    p_analyze = sub.add_parser(
        "analyze",
        help="performance report from a saved trace file or journal directory",
    )
    p_analyze.add_argument(
        "source",
        help="a jsonl/chrome trace file ('repro run --trace ...') or a "
        "journal directory ('repro run --journal DIR')",
    )
    p_analyze.add_argument(
        "--format",
        choices=("terminal", "json", "html"),
        default="terminal",
        help="report rendering (default: terminal)",
    )
    p_analyze.add_argument(
        "--out", default=None, metavar="PATH", help="write instead of printing"
    )
    p_analyze.add_argument(
        "--baseline",
        default=None,
        metavar="PATH",
        help="a saved JSON report; print the per-phase delta table and name "
        "the regressed phase",
    )
    p_analyze.add_argument(
        "--detail",
        action="store_true",
        help="journal reports: include volatile session stats (grants, "
        "checkpoints) that differ between crashed and clean runs",
    )
    p_analyze.set_defaults(fn=cmd_analyze)

    p_sim = sub.add_parser("simulate", help="simulate at paper scale")
    p_sim.add_argument("--workload", choices=WORKLOADS, required=True)
    p_sim.add_argument("--engine", choices=ENGINES, default="hadoop")
    p_sim.add_argument("--input-gb", type=float, default=None, help="override input size")
    p_sim.add_argument("--ssd", action="store_true", help="HDD+SSD architecture")
    p_sim.add_argument(
        "--separate-storage", action="store_true", help="5 storage + 5 compute nodes"
    )
    p_sim.add_argument("--bucket", type=float, default=60.0, help="metric bucket (s)")
    p_sim.add_argument("--export-dir", default=None, help="dump CSV/JSON series here")
    p_sim.set_defaults(fn=cmd_simulate)

    p_cmp = sub.add_parser("compare", help="sort-merge vs one-pass on real engines")
    p_cmp.add_argument("--workload", choices=WORKLOADS, required=True)
    p_cmp.add_argument("--records", type=int, default=100_000)
    p_cmp.add_argument("--nodes", type=int, default=3)
    add_trace_flags(p_cmp)
    p_cmp.set_defaults(fn=cmd_compare)

    from repro.lint.cli import add_lint_parser

    add_lint_parser(sub)

    from repro.san.cli import add_sanitize_parser

    add_sanitize_parser(sub)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
