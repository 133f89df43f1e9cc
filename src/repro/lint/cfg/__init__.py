"""Control-flow-graph layer: path-sensitive and concurrency contracts.

This package is the third reprolint layer.  ``builder`` turns each
function into an intraprocedural CFG (basic blocks with try/except/
finally, with, loop, early-return and exception edges, plus acyclic
reachability over them); ``effects`` classifies the protocol-relevant
effects of each block (journal commits, output emissions, resource
releases); ``context`` classifies every function in the whole-program
call graph as coordinator-scope, kernel/worker-scope or both, with the
entry -> function call chain REP201 prints.
"""

from repro.lint.cfg.builder import CFG, Block, build_cfg, function_cfgs
from repro.lint.cfg.context import ExecContexts, build_contexts

__all__ = [
    "CFG",
    "Block",
    "ExecContexts",
    "build_cfg",
    "build_contexts",
    "function_cfgs",
]
