"""`reprolint`: repo-specific static analysis for the determinism contracts.

The engines in this repository obey contracts that ordinary linters do
not know about — byte-identical output across executors, kernels that do
no I/O of their own, slots on hot-path classes.  This package
machine-checks those contracts at lint time with an AST-based rule
framework (kernel isolation from module state is checked at run time,
by ``tests/exec/test_module_state.py``):

* :mod:`repro.lint.core` — the driver: the module model and its
  one-traversal index, suppression comments, run-wide registries;
* :mod:`repro.lint.rules` — the checkers (REP002, REP007, REP101);
* :mod:`repro.lint.sources` — REP101's nondeterminism vocabulary;
* :mod:`repro.lint.config` — the root, the rule selection and the test
  override (each rule's vocabulary is a constant beside the rule);
* :mod:`repro.lint.report` — text/JSON/SARIF reporters;
* :mod:`repro.lint.cli` — the ``repro lint`` subcommand.

See ``docs/STATIC_ANALYSIS.md`` for the contract each rule encodes.
"""

from repro.lint.config import LintConfig
from repro.lint.core import Finding, LintContext, LintModule, lint_paths, lint_source
from repro.lint.report import format_findings
from repro.lint.rules import ALL_RULES, rule_by_id

__all__ = [
    "ALL_RULES",
    "Finding",
    "LintConfig",
    "LintContext",
    "LintModule",
    "format_findings",
    "lint_paths",
    "lint_source",
    "rule_by_id",
]
