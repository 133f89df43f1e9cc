"""The execution-context model: who runs where, and what follows.

Every function in the whole-program call graph is classified as

* ``kernel``      — reachable from a worker entry point: a function
  registered via ``register_kernel(...)`` in the kernel module, or a
  function submitted to a pool (``pool.submit(fn, ...)``) in the
  executor module.  Under the Thread/MP executors these run
  concurrently, possibly in another process;
* ``coordinator`` — reachable from coordinator-side code (the scheduler
  / engine / journal modules) but never from a worker entry;
* ``both``        — shared helpers reachable from each side.

The classification reuses the module summaries: worker entries are
closed over the resolved call graph breadth-first, remembering each
function's first caller so a finding can print the entry -> site
witness chain; then the coordinator scope is seeded with every
non-worker function in the coordinator modules and closed the same way.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING

from repro.lint.core import registered_kernels

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lint.dataflow.graph import Program

__all__ = ["COORDINATOR_SCOPES", "ExecContexts", "build_contexts", "worker_entries"]

#: Module-path prefixes whose functions seed the coordinator scope
#: (everything there not reachable from a worker entry point runs on
#: the coordinator).  Workloads are deliberately excluded: their
#: map/reduce closures execute inside kernels.
COORDINATOR_SCOPES = (
    "repro/core/",
    "repro/mapreduce/",
    "repro/exec/",
    "repro/hdfs/",
    "repro/io/",
    "repro/obs/",
    "repro/simulator/",
)


class ExecContexts:
    """Kernel/pool/coordinator closures over the program call graph.

    Each closure maps a function id to the caller that first reached it
    (``None`` for a seed).  ``kernel`` grows from the registered
    kernels, ``pool`` from the executor's pool entry points — the
    transport that legitimately reads the coordinator singletons — and
    together they are worker scope.
    """

    __slots__ = ("kernel", "pool", "coordinator")

    def __init__(
        self,
        kernel: dict[str, str | None],
        pool: dict[str, str | None],
        coordinator: dict[str, str | None],
    ) -> None:
        self.kernel = kernel
        self.pool = pool
        self.coordinator = coordinator

    def classify(self, fid: str) -> str | None:
        """"kernel", "coordinator", "both", or None (unreachable from
        either seed set — e.g. dynamically invoked job closures)."""
        in_worker = fid in self.kernel or fid in self.pool
        in_coord = fid in self.coordinator
        if in_worker and in_coord:
            return "both"
        if in_worker:
            return "kernel"
        if in_coord:
            return "coordinator"
        return None

    def worker_chain(self, fid: str) -> tuple[str, ...]:
        """The shortest worker entry -> ... -> ``fid`` call path."""
        callers = self.kernel if fid in self.kernel else self.pool
        chain = [fid]
        while callers[chain[-1]] is not None:
            chain.append(callers[chain[-1]])
        return tuple(reversed(chain))


def worker_entries(
    kernel_tree: ast.Module,
    kernel_modpath: str,
    executor_tree: ast.Module | None,
    executor_modpath: str,
) -> tuple[frozenset[str], frozenset[str]]:
    """Function ids that start executing in worker scope: the registered
    kernels, and the functions the executor module submits to a pool."""
    kernels = frozenset(
        f"{kernel_modpath}::{name}" for name in registered_kernels(kernel_tree)
    )
    pool = set()
    if executor_tree is not None:
        for node in ast.walk(executor_tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("submit", "apply_async", "map")
                and node.args
                and isinstance(node.args[0], ast.Name)
            ):
                pool.add(f"{executor_modpath}::{node.args[0].id}")
    return kernels, frozenset(pool)


def _closure(program: "Program", seeds: frozenset[str]) -> dict[str, str | None]:
    """The call-graph closure of ``seeds`` over resolved summary calls,
    breadth-first: function id -> the caller that first reached it."""
    callers: dict[str, str | None] = dict.fromkeys(
        sorted(seeds & program.functions.keys())
    )
    frontier = list(callers)
    while frontier:
        reached = []
        for fid in frontier:
            summary = program.functions[fid]
            for dotted, _lineno, _col in summary.calls:
                target = program.resolve(summary.modpath, dotted, summary.cls)
                if target is not None and target not in callers:
                    callers[target] = fid
                    reached.append(target)
        frontier = reached
    return callers


def build_contexts(
    program: "Program",
    *,
    kernel_tree: ast.Module,
    kernel_modpath: str,
    executor_tree: ast.Module | None,
    executor_modpath: str,
) -> ExecContexts:
    kernels, pool_entries = worker_entries(
        kernel_tree, kernel_modpath, executor_tree, executor_modpath
    )
    kernel = _closure(program, kernels)
    pool = _closure(program, pool_entries)
    coordinator_seeds = frozenset(
        fid
        for fid, summary in program.functions.items()
        if summary.modpath.startswith(COORDINATOR_SCOPES)
        and fid not in kernel
        and fid not in pool
    )
    return ExecContexts(kernel, pool, _closure(program, coordinator_seeds))
