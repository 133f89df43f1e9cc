"""The ``repro lint`` subcommand.  Any finding fails the run: there is no
baseline to grandfather one into.

Examples::

    python -m repro lint                           # default scope
    python -m repro lint src/ --format json
    python -m repro lint --format sarif            # code-scanning upload
    python -m repro lint --stats                   # per-rule wall time
    python -m repro lint --list-rules
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.lint.config import LintConfig, repo_root
from repro.lint.core import lint_paths
from repro.lint.report import format_findings, format_timings
from repro.lint.rules import ALL_RULES

__all__ = ["add_lint_parser", "cmd_lint", "default_lint_paths"]


def default_lint_paths(root: Path) -> list[str]:
    """The default lint scope: src plus the satellite trees that feed
    published numbers (benchmarks, examples, the shared test fixtures)."""
    out = [str(root / "src")]
    for extra in ("benchmarks", "examples", "tests/conftest.py"):
        candidate = root / extra
        if candidate.exists():
            out.append(str(candidate))
    return out


def cmd_lint(args: argparse.Namespace) -> int:
    if args.list_rules:
        for rule in ALL_RULES:
            print(f"{rule.id}  {rule.title}")
        return 0

    root = repo_root(Path.cwd())
    config = LintConfig(
        root=root,
        select=tuple(args.select.split(",")) if args.select else (),
    )

    timings: dict[str, float] | None = {} if args.stats else None
    findings = lint_paths(args.paths or default_lint_paths(root), config, timings=timings)

    sys.stdout.write(format_findings(findings, args.format, timings=timings))
    if args.stats and timings is not None and args.format == "text":
        sys.stdout.write(format_timings(timings))
    return 1 if findings else 0


def add_lint_parser(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "lint",
        help="static-analysis pass for the repo's determinism contracts",
        description="Check the REP002..REP205 contracts (see "
        "docs/STATIC_ANALYSIS.md); any finding fails the run.",
    )
    p.add_argument(
        "paths",
        nargs="*",
        help="files/directories to lint "
        "(default: src/ benchmarks/ examples/ tests/conftest.py)",
    )
    p.add_argument("--format", choices=("text", "json", "sarif"), default="text")
    p.add_argument(
        "--stats",
        action="store_true",
        help="report per-rule wall time (text table, or a 'timings' key "
        "with --format json)",
    )
    p.add_argument(
        "--select",
        default=None,
        metavar="RULES",
        help="comma-separated rule ids to run (default: all)",
    )
    p.add_argument(
        "--list-rules", action="store_true", help="print the rule catalogue and exit"
    )
    p.set_defaults(fn=cmd_lint)
