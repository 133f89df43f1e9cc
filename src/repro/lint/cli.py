"""The ``repro lint`` subcommand.  Any finding fails the run: there is no
baseline to grandfather one into.

Examples::

    python -m repro lint                           # default scope
    python -m repro lint src/ --format json
    python -m repro lint --format sarif            # code-scanning upload
    python -m repro lint --changed-only            # git-diff-aware
    python -m repro lint --stats                   # per-rule wall time
    python -m repro lint --list-rules
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path

from repro.lint.config import LintConfig, repo_root
from repro.lint.core import lint_paths
from repro.lint.report import format_findings, format_timings
from repro.lint.rules import ALL_RULES

__all__ = ["add_lint_parser", "changed_py_files", "cmd_lint", "default_lint_paths"]


def default_lint_paths(root: Path) -> list[str]:
    """The default lint scope: src plus the satellite trees that feed
    published numbers (benchmarks, examples, the shared test fixtures)."""
    out = [str(root / "src")]
    for extra in ("benchmarks", "examples", "tests/conftest.py"):
        candidate = root / extra
        if candidate.exists():
            out.append(str(candidate))
    return out


def changed_py_files(root: Path, base_ref: str) -> list[str] | None:
    """Python files changed vs ``base_ref`` (staged, unstaged and
    committed), or None when git is unavailable.

    Runs the diff with ``--find-renames`` and parses ``--name-status``
    output so a renamed module is always re-linted under its *new* path,
    regardless of the host's ``diff.renames`` configuration (with rename
    detection off a rename degrades to a delete plus an add; with it on,
    the ``R<score>\\told\\tnew`` line names both sides — either way the
    destination must land in the lint scope, never the stale old path).
    """
    try:
        proc = subprocess.run(
            [
                "git",
                "diff",
                "--name-status",
                "--find-renames",
                "--diff-filter=d",
                base_ref,
                "--",
            ],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=30,
            check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    out = []
    for line in proc.stdout.splitlines():
        parts = line.rstrip("\n").split("\t")
        if len(parts) < 2:
            continue
        # Renames/copies report "R100<TAB>old<TAB>new": lint the new
        # path.  Plain statuses report "status<TAB>path".
        path = parts[-1]
        if path.endswith(".py") and (root / path).is_file():
            out.append(str(root / path))
    return sorted(set(out))


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

    if args.changed_only:
        changed = changed_py_files(root, args.base_ref)
        if changed is None:
            print("lint: --changed-only needs git; linting the full scope",
                  file=sys.stderr)
            paths = args.paths or default_lint_paths(root)
        elif not changed:
            sys.stdout.write(format_findings([], args.format))
            return 0
        else:
            paths = changed
    else:
        paths = args.paths or default_lint_paths(root)
    timings: dict[str, float] | None = {} if args.stats else None
    findings = lint_paths(paths, config, timings=timings)

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
        "--changed-only",
        action="store_true",
        help="lint only .py files changed vs --base-ref (for pre-commit)",
    )
    p.add_argument(
        "--base-ref",
        default="HEAD",
        metavar="REF",
        help="git ref --changed-only diffs against (default: HEAD)",
    )
    p.add_argument(
        "--list-rules", action="store_true", help="print the rule catalogue and exit"
    )
    p.set_defaults(fn=cmd_lint)
