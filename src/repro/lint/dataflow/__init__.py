"""Whole-program dataflow layer for reprolint.

This package builds per-module :class:`ModuleSummary` objects (each
function's callees, returned taints, attribute writes, opened
resources), links them into a project :class:`Program` over all of
``src/repro/``, and runs a fixpoint propagator whose resolved
:class:`ProgramFacts` the whole-program rules query.
"""

from repro.lint.dataflow.graph import Program, build_program, clear_program_memo
from repro.lint.dataflow.summary import (
    FunctionSummary,
    ModuleSummary,
    summarize_module,
)
from repro.lint.dataflow.taint import ProgramFacts

__all__ = [
    "FunctionSummary",
    "ModuleSummary",
    "Program",
    "ProgramFacts",
    "build_program",
    "clear_program_memo",
    "summarize_module",
]
