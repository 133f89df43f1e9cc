"""`reprolint`: repo-specific static analysis for the determinism contracts.

The engines in this repository obey contracts that ordinary linters do
not know about — byte-identical output across executors, pure picklable
kernels, registered counter and span names.  This package machine-checks
those contracts at lint time with an AST-based rule framework:

* :mod:`repro.lint.core` — the driver: the module model and its
  one-traversal index, suppression comments, run-wide registries;
* :mod:`repro.lint.rules` — the per-file checkers (REP002..REP104);
* :mod:`repro.lint.cfg` — the path- and context-sensitive checkers
  (REP201..REP205), REP201 over the :mod:`repro.lint.dataflow` call
  graph;
* :mod:`repro.lint.config` — the root, the rule selection and the test
  overrides (each rule's vocabulary is a constant beside the rule);
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
