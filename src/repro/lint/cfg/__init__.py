"""Execution-context layer: who runs each function.

``context`` classifies every function in the whole-program call graph
as coordinator-scope, kernel/worker-scope or both, with the entry ->
function call chain REP201 prints; ``rules`` holds the two rules that
read it, REP201 and REP202.
"""

from repro.lint.cfg.context import ExecContexts, build_contexts

__all__ = ["ExecContexts", "build_contexts"]
