"""Whole-program layer for reprolint: the call graph.

This package builds per-module :class:`ModuleSummary` objects (each
function's call targets, module-global writes and coordinator-singleton
reads) and links them into a project :class:`Program` over all of
``src/repro/``, whose resolver REP201's execution-context closure walks.
"""

from repro.lint.dataflow.graph import Program, build_program, clear_program_memo
from repro.lint.dataflow.summary import (
    FunctionSummary,
    ModuleSummary,
    summarize_module,
)

__all__ = [
    "FunctionSummary",
    "ModuleSummary",
    "Program",
    "build_program",
    "clear_program_memo",
    "summarize_module",
]
