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

The classification reuses the PR 5 dataflow summaries: worker entries
are closed over the resolved call graph, then the coordinator scope is
seeded with every non-worker function in the configured coordinator
modules and closed the same way.

On top of the same summaries this module derives two whole-program
fact tables: ``blocking_facts`` (functions that transitively reach a
blocking call — REP203) and ``lock_facts`` (the lock-order graph and
its cycles — REP206).
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Mapping

from repro.lint.core import registered_kernels
from repro.lint.dataflow.taint import fid_display

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lint.dataflow.taint import ProgramFacts

__all__ = [
    "BLOCKING_CALLS",
    "COORDINATOR_SCOPES",
    "ExecContexts",
    "blocking_facts",
    "build_contexts",
    "lock_facts",
    "worker_entries",
]

#: (detail dotted target, witness chain of fids, call-site lineno)
BlockEntry = tuple[str, tuple[str, ...], int]

_MAX_CHAIN = 8

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

#: Calls that block the calling thread (REP203 forbids them in
#: coordinator scope).  Exact dotted match after alias/constructor
#: resolution, so ``q = queue.Queue(); q.get()`` matches
#: ``queue.Queue.get`` while ``", ".join(...)`` never matches
#: ``threading.Thread.join``.
BLOCKING_CALLS = frozenset(
    {
        "time.sleep",
        "subprocess.run",
        "subprocess.call",
        "subprocess.check_call",
        "subprocess.check_output",
        "os.system",
        "os.wait",
        "os.waitpid",
        "select.select",
        "socket.create_connection",
        "socket.socket.accept",
        "socket.socket.connect",
        "socket.socket.recv",
        "socket.socket.sendall",
        "queue.Queue.get",
        "queue.Queue.put",
        "queue.Queue.join",
        "threading.Thread.join",
        "threading.Event.wait",
        "multiprocessing.Process.join",
    }
)


class ExecContexts:
    """Worker/coordinator closure sets over the program call graph."""

    __slots__ = ("worker", "coordinator")

    def __init__(self, worker: frozenset[str], coordinator: frozenset[str]) -> None:
        self.worker = worker
        self.coordinator = coordinator

    def classify(self, fid: str) -> str | None:
        """"kernel", "coordinator", "both", or None (unreachable from
        either seed set — e.g. dynamically invoked job closures)."""
        in_worker = fid in self.worker
        in_coord = fid in self.coordinator
        if in_worker and in_coord:
            return "both"
        if in_worker:
            return "kernel"
        if in_coord:
            return "coordinator"
        return None


def worker_entries(
    kernel_tree: ast.Module,
    kernel_modpath: str,
    executor_tree: ast.Module | None,
    executor_modpath: str,
) -> frozenset[str]:
    """Function ids that start executing in worker scope."""
    entries = {
        f"{kernel_modpath}::{name}" for name in registered_kernels(kernel_tree)
    }
    if executor_tree is not None:
        for node in ast.walk(executor_tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("submit", "apply_async", "map")
                and node.args
                and isinstance(node.args[0], ast.Name)
            ):
                entries.add(f"{executor_modpath}::{node.args[0].id}")
    return frozenset(entries)


def _closure(facts: "ProgramFacts", seeds: frozenset[str]) -> frozenset[str]:
    """The call-graph closure of ``seeds`` over resolved summary calls."""
    seen = set(seeds & facts.functions.keys())
    frontier = list(seen)
    while frontier:
        fid = frontier.pop()
        summary = facts.functions[fid]
        for dotted, _lineno, _col in summary.calls:
            target = facts.resolve(summary.modpath, dotted, summary.cls)
            if target is not None and target not in seen:
                seen.add(target)
                frontier.append(target)
    return frozenset(seen)


def build_contexts(
    facts: "ProgramFacts",
    *,
    kernel_tree: ast.Module,
    kernel_modpath: str,
    executor_tree: ast.Module | None,
    executor_modpath: str,
) -> ExecContexts:
    worker = _closure(
        facts,
        worker_entries(kernel_tree, kernel_modpath, executor_tree, executor_modpath),
    )
    coordinator_seeds = frozenset(
        fid
        for fid, summary in facts.functions.items()
        if summary.modpath.startswith(COORDINATOR_SCOPES) and fid not in worker
    )
    coordinator = _closure(facts, coordinator_seeds)
    return ExecContexts(worker, coordinator)


# -- REP203: transitive blocking-call facts -----------------------------------


def blocking_facts(facts: "ProgramFacts") -> dict[str, BlockEntry]:
    """fid -> (blocking target, witness chain, call lineno) fixpoint.

    A function blocks if it calls one of ``BLOCKING_CALLS`` directly
    (exact dotted match — summaries already resolve constructor-typed
    receivers like ``queue.Queue.get``) or calls a function that does.
    """
    table: dict[str, BlockEntry] = {}
    order = sorted(facts.functions)
    for fid in order:
        for dotted, lineno, _col in facts.functions[fid].calls:
            if dotted in BLOCKING_CALLS:
                table.setdefault(fid, (dotted, (), lineno))
                break
    changed = True
    while changed:
        changed = False
        for fid in order:
            if fid in table:
                continue
            summary = facts.functions[fid]
            for dotted, lineno, _col in summary.calls:
                target = facts.resolve(summary.modpath, dotted, summary.cls)
                entry = table.get(target) if target else None
                if entry is None or len(entry[1]) >= _MAX_CHAIN:
                    continue
                table[fid] = (entry[0], (target, *entry[1]), lineno)
                changed = True
                break
    return table


# -- REP206: the lock-order graph ---------------------------------------------


def lock_facts(
    facts: "ProgramFacts",
) -> tuple[dict[tuple[str, str], list[tuple[str, int]]], list[tuple[str, ...]]]:
    """(order edges, cycles) over the program's statically named locks.

    Edges ``(outer, inner) -> [(fid, lineno), ...]`` come from nested
    ``with``/acquire sites in one function and, interprocedurally, from
    calls made while a lock is held into functions whose transitive
    lock-set is non-empty.  Cycles are the canonicalised lock-order
    loops (deadlock candidates).
    """
    # Transitive lock-set fixpoint: every lock a call to fid may acquire.
    lock_sets: dict[str, frozenset[str]] = {
        fid: frozenset(name for name, _lineno in s.lock_acquires)
        for fid, s in facts.functions.items()
    }
    changed = True
    while changed:
        changed = False
        for fid, summary in facts.functions.items():
            acc = set(lock_sets[fid])
            for dotted, _lineno, _col in summary.calls:
                target = facts.resolve(summary.modpath, dotted, summary.cls)
                if target is not None:
                    acc |= lock_sets[target]
            frozen = frozenset(acc)
            if frozen != lock_sets[fid]:
                lock_sets[fid] = frozen
                changed = True

    edges: dict[tuple[str, str], list[tuple[str, int]]] = {}
    for fid, summary in facts.functions.items():
        for outer, inner, lineno in summary.lock_orders:
            if outer != inner:
                edges.setdefault((outer, inner), []).append((fid, lineno))
        for held, dotted, lineno in summary.calls_under_lock:
            target = facts.resolve(summary.modpath, dotted, summary.cls)
            if target is None:
                continue
            for inner in lock_sets[target]:
                if inner != held:
                    edges.setdefault((held, inner), []).append((fid, lineno))

    # Cycle detection over the lock digraph (iterative DFS, colouring).
    graph: dict[str, list[str]] = {}
    for outer, inner in edges:
        graph.setdefault(outer, []).append(inner)
        graph.setdefault(inner, [])
    cycles: list[tuple[str, ...]] = []
    seen_cycles: set[tuple[str, ...]] = set()
    state: dict[str, int] = {}  # 0 unvisited / 1 on stack / 2 done
    for root in sorted(graph):
        if state.get(root):
            continue
        stack: list[tuple[str, list[str]]] = [(root, list(sorted(graph[root])))]
        path = [root]
        state[root] = 1
        while stack:
            node, todo = stack[-1]
            if todo:
                nxt = todo.pop(0)
                if state.get(nxt) == 1:
                    cycle = tuple(path[path.index(nxt):])
                    pivot = cycle.index(min(cycle))
                    canon = cycle[pivot:] + cycle[:pivot]
                    if canon not in seen_cycles:
                        seen_cycles.add(canon)
                        cycles.append(canon)
                elif not state.get(nxt):
                    state[nxt] = 1
                    path.append(nxt)
                    stack.append((nxt, list(sorted(graph[nxt]))))
            else:
                state[node] = 2
                stack.pop()
                path.pop()
    return edges, cycles


def chain_text(fid: str, chain: tuple[str, ...]) -> str:
    return " -> ".join(fid_display(f) for f in (fid, *chain))
