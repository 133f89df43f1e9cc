"""REP201..REP206: concurrency and protocol-ordering rules.

These rules sit on the CFG layer (``cfg/builder.py``) and the
execution-context model (``cfg/context.py``), on top of the
whole-program summaries.  ``docs/STATIC_ANALYSIS.md`` documents the
contract behind each.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.cfg.builder import CFG, Block, build_cfg, module_defs
from repro.lint.cfg.context import BLOCKING_CALLS, COORDINATOR_SCOPES, chain_text
from repro.lint.cfg.effects import (
    EMIT_METHODS,
    RESOURCE_KINDS,
    emit_sites,
    journal_appends,
    releases,
    resource_kind,
)
from repro.lint.core import (
    FUNCTION_DEFS,
    Finding,
    LintContext,
    LintModule,
    Rule,
    call_dotted,
    enclosing_class_name,
    local_bindings,
    registered_kernels,
    terminal_name,
)
from repro.lint.dataflow.summary import (
    COORDINATOR_SINGLETONS,
    MODULE_BODY,
    is_resource_factory,
)
from repro.lint.dataflow.taint import chain_display

__all__ = ["CFG_RULES"]


# -- REP201: shared mutable state across execution contexts -------------------


class SharedStateRace(Rule):
    """REP201: a module global written from kernel scope (or written on
    the coordinator and read from kernel scope) is a data race under the
    thread executor and silently divergent state under the fork
    executor.  State with a real ownership-transfer protocol is exempted
    by an inline suppression on the write.
    """

    id = "REP201"
    title = "no shared mutable module state across coordinator/kernel contexts"

    def check(self, module: LintModule, ctx: LintContext) -> Iterator[Finding]:
        summary = ctx.module_summary(module)
        writers: dict[str, list[tuple[str, int]]] = {}
        for qual, fs in summary.functions.items():
            if qual == MODULE_BODY:
                continue
            for name, lineno in fs.global_writes:
                writers.setdefault(name, []).append((qual, lineno))
        if not writers:
            return
        contexts = ctx.exec_contexts(ctx.facts_for(module))
        reads = _global_reads(module, frozenset(writers) - set(COORDINATOR_SINGLETONS))
        for name in sorted(writers):
            if name in COORDINATOR_SINGLETONS:
                continue
            classified = [
                (qual, lineno, contexts.classify(f"{module.modpath}::{qual}"))
                for qual, lineno in writers[name]
            ]
            kernel_writes = [
                (q, l) for q, l, c in classified if c in ("kernel", "both")
            ]
            for qual, lineno in kernel_writes:
                yield Finding(
                    self.id,
                    module.path,
                    lineno,
                    1,
                    f"module global {name!r} is written in {qual!r}, which "
                    "runs in kernel scope; concurrent kernel invocations "
                    "race on it under the thread executor and diverge "
                    "silently under fork",
                )
            if kernel_writes:
                continue  # the write findings already cover this global
            coord = [(q, l) for q, l, c in classified if c == "coordinator"]
            if not coord:
                continue
            for qual, node in reads.get(name, ()):
                if contexts.classify(f"{module.modpath}::{qual}") in (
                    "kernel",
                    "both",
                ):
                    yield module.finding(
                        self.id,
                        node,
                        f"module global {name!r} is written in coordinator "
                        f"scope ({coord[0][0]!r}) and read here in kernel "
                        "scope with no ownership transfer; pass it through "
                        "the task spec instead",
                    )


def _global_reads(
    module: LintModule, names: frozenset[str]
) -> dict[str, list[tuple[str, ast.Name]]]:
    """name -> [(qualname, load site)] for unshadowed global loads."""
    out: dict[str, list[tuple[str, ast.Name]]] = {}
    if not names:
        return out
    for qual, fn in module_defs(module.tree):
        local = local_bindings(module, fn)
        for node in module.subtree(fn):
            if (
                isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)
                and node.id in names
                and node.id not in local
            ):
                out.setdefault(node.id, []).append((qual, node))
    return out


# -- REP202: fork-unsafe captures ---------------------------------------------


class ForkUnsafeCapture(Rule):
    """REP202: OS resources (open files, sockets, locks, live process
    handles, live generators) must never land on a picklable ``*Spec``
    field or be captured by a registered kernel from module scope — the
    fork/pickle transport cannot carry them, and under fork they alias
    the coordinator's file descriptors.
    """

    id = "REP202"
    title = "no fork-unsafe OS resources on specs or captured by kernels"

    def check(self, module: LintModule, ctx: LintContext) -> Iterator[Finding]:
        facts = ctx.facts_for(module)
        spec_names = ctx.spec_class_names
        gen_defs = frozenset(
            qual
            for qual, fn in module_defs(module.tree)
            if "." not in qual
            and any(
                isinstance(n, (ast.Yield, ast.YieldFrom))
                for n in module.scope_nodes[fn]
            )
        )

        def value_kind(value: ast.AST) -> tuple[str, str | None] | None:
            """(resource kind, witness chain) when the expression yields one."""
            if isinstance(value, ast.GeneratorExp):
                return "live generator", None
            if not isinstance(value, ast.Call):
                return None
            dotted = call_dotted(module, value)
            if dotted is None:
                return None
            kind = resource_kind(dotted)
            if kind is not None:
                return kind, None
            if dotted in gen_defs:
                return "live generator", None
            fid = facts.resolve(
                module.modpath, dotted, enclosing_class_name(module, value)
            )
            entry = facts.resource.get(fid) if fid is not None else None
            if entry is None:
                return None
            return RESOURCE_KINDS.get(entry[0], entry[0]), chain_display(fid, entry)

        def bound_name(node: ast.AST) -> str | None:
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
            ):
                return node.targets[0].id
            return None

        module_resources: dict[str, str] = {}
        for node in module.tree.body:
            hit = value_kind(node.value) if bound_name(node) else None
            if hit is not None:
                module_resources[bound_name(node)] = hit[0]

        if module.modpath == ctx.kernel_modpath and module_resources:
            registered = set(registered_kernels(module.tree))
            for qual, fn in module_defs(module.tree):
                if qual not in registered:
                    continue
                local = local_bindings(module, fn)
                for node in module.subtree(fn):
                    if (
                        isinstance(node, ast.Name)
                        and isinstance(node.ctx, ast.Load)
                        and node.id in module_resources
                        and node.id not in local
                    ):
                        yield module.finding(
                            self.id,
                            node,
                            f"kernel {qual!r} captures module-level "
                            f"{module_resources[node.id]} {node.id!r}; OS "
                            "resources do not survive the fork into worker "
                            "processes",
                        )

        for scope in module.scopes:
            nodes = module.scope_nodes[scope]
            lookup: dict[str, tuple[str, str | None]] = {}
            spec_locals: set[str] = set()
            for node in nodes:
                name = bound_name(node)
                if name is None:
                    continue
                hit = value_kind(node.value)
                if hit is not None:
                    lookup[name] = hit
                elif (
                    isinstance(node.value, ast.Call)
                    and terminal_name(node.value.func) in spec_names
                ):
                    spec_locals.add(name)
            if scope is not module.tree and module_resources:
                shadowed = local_bindings(module, scope)
                for gname, kind in module_resources.items():
                    if gname not in shadowed:
                        lookup.setdefault(gname, (kind, None))

            def arg_kind(value: ast.AST) -> tuple[str, str | None] | None:
                if isinstance(value, ast.Name) and value.id in lookup:
                    return lookup[value.id]
                return value_kind(value)

            for node in nodes:
                if (
                    isinstance(node, ast.Call)
                    and terminal_name(node.func) in spec_names
                ):
                    for arg in (*node.args, *(kw.value for kw in node.keywords)):
                        hit = arg_kind(arg)
                        if hit is not None:
                            yield self._spec_finding(module, arg, hit, "argument")
                elif (
                    isinstance(node, ast.Assign)
                    and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Attribute)
                    and isinstance(node.targets[0].value, ast.Name)
                    and node.targets[0].value.id in spec_locals
                ):
                    hit = arg_kind(node.value)
                    if hit is not None:
                        yield self._spec_finding(
                            module, node, hit, f"field {node.targets[0].attr!r}"
                        )

    def _spec_finding(
        self,
        module: LintModule,
        node: ast.AST,
        hit: tuple[str, str | None],
        where: str,
    ) -> Finding:
        kind, witness = hit
        suffix = f" (path: {witness})" if witness else ""
        return module.finding(
            self.id,
            node,
            f"picklable spec {where} receives a {kind}{suffix}; the "
            "fork/pickle transport cannot carry OS resources — pass a "
            "path or config value and open it inside the kernel",
        )


# -- REP203: blocking calls in coordinator scope ------------------------------


class CoordinatorBlockingCalls(Rule):
    """REP203: the coordinator's scheduling loop must stay nonblocking —
    ``time.sleep``, synchronous socket I/O, subprocess waits and
    unbounded queue/thread joins stall every in-flight partition.

    Each root cause is reported exactly once: direct blocking calls are
    flagged where they appear inside coordinator-scope modules, while
    blocking reached through helpers *outside* those modules (workload
    closures, shared utilities) is flagged transitively at the boundary
    call, with the witness chain.
    """

    id = "REP203"
    title = "no blocking calls in coordinator-scope functions"

    def check(self, module: LintModule, ctx: LintContext) -> Iterator[Finding]:
        facts = ctx.facts_for(module)
        contexts = ctx.exec_contexts(facts)
        index = ctx.blocking_facts(facts)
        summary = ctx.module_summary(module)
        in_coordinator_module = module.modpath.startswith(COORDINATOR_SCOPES)
        for qual in sorted(summary.functions):
            if qual == MODULE_BODY:
                continue
            fid = f"{module.modpath}::{qual}"
            scope = contexts.classify(fid)
            if scope not in ("coordinator", "both"):
                continue
            where = (
                "coordinator-scope"
                if scope == "coordinator"
                else "shared coordinator/kernel"
            )
            fs = summary.functions[qual]
            for dotted, lineno, col in fs.calls:
                if dotted in BLOCKING_CALLS:
                    # Outside coordinator modules the call is charged to
                    # the coordinator-side caller (transitively, below).
                    if in_coordinator_module:
                        yield Finding(
                            self.id,
                            module.path,
                            lineno,
                            col + 1,
                            f"blocking call {dotted}() in {where} function "
                            f"{qual!r}; the coordinator event loop must not "
                            "stall (bound it with a timeout or move it to a "
                            "worker)",
                        )
                    continue
                target = facts.resolve(fs.modpath, dotted, fs.cls)
                entry = index.get(target) if target is not None else None
                if entry is None:
                    continue
                if target.partition("::")[0].startswith(COORDINATOR_SCOPES):
                    continue  # reported at the callee's own site
                yield Finding(
                    self.id,
                    module.path,
                    lineno,
                    col + 1,
                    f"call from {where} function {qual!r} blocks "
                    f"transitively on {entry[0]}() "
                    f"(via {chain_text(target, entry[1])})",
                )


# -- REP204: commit-then-emit protocol ordering -------------------------------


class CommitProtocolOrder(Rule):
    """REP204: crash consistency requires the reduce-commit journal
    record to happen-before the committed-output emission — a crash
    between emit and append replays the reduce and duplicates output.
    Functions that emit but never touch the journal are out of protocol
    scope (helpers given a pre-committed path).
    """

    id = "REP204"
    title = "reduce-commit journal append must precede output emission"

    def check(self, module: LintModule, ctx: LintContext) -> Iterator[Finding]:
        # Only a def that calls an emit method can hold an emission.
        emitters = {
            ancestor
            for call in module.nodes(ast.Call)
            if isinstance(call.func, ast.Attribute) and call.func.attr in EMIT_METHODS
            for ancestor in module.ancestors(call)
        }
        for qual, fn in module_defs(module.tree):
            if fn not in emitters:
                continue
            cfg = build_cfg(fn, qual)
            live = cfg.live()
            commits: set[int] = set()
            journal_touched = False
            emits: list[tuple[int, ast.Call]] = []
            for block in cfg.blocks:
                if block.index not in live:
                    continue
                for kind, _call in journal_appends(block, module):
                    journal_touched = True
                    if kind == "reduce-commit":
                        commits.add(block.index)
                for call in emit_sites(block):
                    emits.append((block.index, call))
            if not emits or not journal_touched:
                continue
            for idx, call in emits:
                if not commits:
                    yield module.finding(
                        self.id,
                        call,
                        f"{qual!r} emits committed output but appends no "
                        "reduce-commit journal record; append "
                        "K_REDUCE_COMMIT before emitting so a crash "
                        "replays instead of duplicating",
                    )
                    continue
                ahead = cfg.reachable([idx], forward=True, include_back=False)
                if ahead & commits:
                    yield module.finding(
                        self.id,
                        call,
                        f"{qual!r} emits committed output before its "
                        "reduce-commit journal append on a control-flow "
                        "path; the append must happen-before the emission",
                    )
                    continue
                behind = cfg.reachable([idx], forward=False, include_back=True)
                if not behind & commits:
                    yield module.finding(
                        self.id,
                        call,
                        f"no path through {qual!r} appends a reduce-commit "
                        "journal record before this committed-output "
                        "emission",
                    )


# -- REP205: resource release on every path -----------------------------------


def _bare_close(module: LintModule, stmt: ast.AST | None, name: str) -> bool:
    """Is ``stmt`` a ``name.close()`` statement outside any ``finally``?"""
    call = stmt.value if isinstance(stmt, ast.Expr) else None
    if not (
        isinstance(call, ast.Call)
        and isinstance(call.func, ast.Attribute)
        and call.func.attr == "close"
        and isinstance(call.func.value, ast.Name)
        and call.func.value.id == name
    ):
        return False
    child = stmt
    for parent in module.ancestors(stmt):
        if isinstance(parent, ast.Try) and child in parent.finalbody:
            return False
        child = parent
    return True


class ResourceRelease(Rule):
    """REP205: a local bound to a freshly acquired resource (open file,
    run writer, tracer span — possibly acquired through a helper) must
    be released on *every* CFG path out of the acquisition, exception
    edges included: context-managed, closed in a ``finally`` that
    starts right after the acquisition, or handed to another owner.  A
    bare ``x.close()`` leaks the handle on every exception path between
    acquisition and close, and so does a ``finally: x.close()`` when
    statements between the acquisition and the ``try`` can raise.
    """

    id = "REP205"
    title = "acquired resources released on all paths, exception edges included"

    def check(self, module: LintModule, ctx: LintContext) -> Iterator[Finding]:
        facts = ctx.facts_for(module)
        # scope -> {acquiring assignment: (detail, witness path)}
        acquired: dict[ast.AST, dict[ast.AST, tuple[str, str | None]]] = {}
        for node in module.nodes(ast.Assign):
            if (
                len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Call)
            ):
                hit = self._acquires(module, facts, node.value)
                if hit is not None:
                    scope = next(
                        (a for a in module.ancestors(node) if isinstance(a, FUNCTION_DEFS)),
                        module.tree,
                    )
                    acquired.setdefault(scope, {})[node] = hit
        for scope, hits in acquired.items():
            cfg = build_cfg(scope, MODULE_BODY if scope is module.tree else None)
            live = cfg.live()
            for block in cfg.blocks:
                node = block.node
                hit = hits.get(node) if block.index in live else None
                if hit is None:
                    continue
                name = node.targets[0].id
                if self._released_on_all_paths(cfg, block, name):
                    continue
                source = hit[0] + (f" (path: {hit[1]})" if hit[1] else "")
                releasing = [
                    b for b in cfg.blocks if b.index in live and releases(b, name)
                ]
                if not releasing:
                    why = (
                        "is never closed in this scope (use `with` or close "
                        "it in a finally block)"
                    )
                elif all(_bare_close(module, b.node, name) for b in releasing):
                    why = (
                        "is closed outside try/finally; an exception before "
                        "close() leaks it (use `with` or move close() to a "
                        "finally block)"
                    )
                else:
                    why = (
                        "escapes on an exception path before its release; the "
                        "close/with must post-dominate the acquisition (no "
                        "raising statements between acquire and the protected "
                        "region)"
                    )
                yield module.finding(
                    self.id, node, f"resource {name!r} from {source} {why}"
                )

    @staticmethod
    def _acquires(
        module: LintModule, facts, node: ast.Call
    ) -> tuple[str, str | None] | None:
        """(detail, witness path) when the call acquires a resource."""
        dotted = call_dotted(module, node)
        if dotted is None:
            return None
        if is_resource_factory(dotted):
            return dotted.rpartition(".")[2], None
        fid = facts.resolve(
            module.modpath, dotted, enclosing_class_name(module, node)
        )
        entry = facts.resource.get(fid) if fid is not None else None
        if entry is None:
            return None
        return entry[0], chain_display(fid, entry)

    @staticmethod
    def _released_on_all_paths(cfg: CFG, acquire: Block, name: str) -> bool:
        """Greatest-fixpoint must-analysis: a block is safe when it
        releases ``name`` or every successor is safe; reaching function
        exit without a release is unsafe.  The acquisition's own
        exception edge is exempt (a failed acquire binds nothing)."""
        rel = [releases(b, name) for b in cfg.blocks]
        safe = [True] * len(cfg.blocks)
        safe[cfg.exit] = False
        changed = True
        while changed:
            changed = False
            for b in cfg.blocks:
                i = b.index
                if i == cfg.exit or rel[i] or not safe[i]:
                    continue
                if b.succs and not all(safe[s] for s, _k in b.succs):
                    safe[i] = False
                    changed = True
        return all(safe[s] for s, kind in acquire.succs if kind != "exc")


# -- REP206: lock-ordering consistency ----------------------------------------


class LockOrderConsistency(Rule):
    """REP206: every pair of statically named locks must be acquired in
    one global order across the whole call graph — a cycle in the
    lock-order digraph (direct nesting or calls made while holding a
    lock) is a deadlock waiting for the right interleaving.
    """

    id = "REP206"
    title = "consistent lock acquisition order across the call graph"

    def check(self, module: LintModule, ctx: LintContext) -> Iterator[Finding]:
        # Only a function that takes a lock can contribute an order edge.
        summary = ctx.module_summary(module)
        if not any(fs.lock_acquires for fs in summary.functions.values()):
            return
        edges, cycles = ctx.lock_facts(ctx.facts_for(module))
        prefix = f"{module.modpath}::"
        reported: set[tuple[str, str, str, int]] = set()
        for cycle in cycles:
            display = " -> ".join((*cycle, cycle[0]))
            pairs = [
                (cycle[i], cycle[(i + 1) % len(cycle)])
                for i in range(len(cycle))
            ]
            for outer, inner in pairs:
                for fid, lineno in edges.get((outer, inner), ()):
                    if not fid.startswith(prefix):
                        continue
                    key = (outer, inner, fid, lineno)
                    if key in reported:
                        continue
                    reported.add(key)
                    yield Finding(
                        self.id,
                        module.path,
                        lineno,
                        1,
                        f"lock-order cycle {display}: this site acquires "
                        f"{inner} while holding {outer}, and another path "
                        "acquires them in the opposite order (deadlock "
                        "risk); pick one global order",
                    )


CFG_RULES: tuple[Rule, ...] = (
    SharedStateRace(),
    ForkUnsafeCapture(),
    CoordinatorBlockingCalls(),
    CommitProtocolOrder(),
    ResourceRelease(),
    LockOrderConsistency(),
)
