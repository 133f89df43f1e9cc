"""REP201, REP202, REP204, REP205: concurrency and protocol-ordering rules.

These rules sit on the CFG layer (``cfg/builder.py``) and the
execution-context model (``cfg/context.py``), on top of the
whole-program call graph.  ``docs/STATIC_ANALYSIS.md`` documents the
contract behind each.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.cfg.builder import CFG, Block, build_cfg, module_defs
from repro.lint.cfg.effects import (
    EMIT_METHODS,
    emit_sites,
    is_resource_factory,
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
    local_bindings,
    registered_kernels,
    terminal_name,
)
from repro.lint.dataflow.graph import fid_display
from repro.lint.dataflow.summary import COORDINATOR_SINGLETONS, MODULE_BODY

__all__ = ["CFG_RULES"]


# -- REP201: kernels touch no coordinator or module state ---------------------


class KernelStateIsolation(Rule):
    """REP201: code that runs in kernel scope — a registered kernel, a
    pool entry point, or anything either reaches through any number of
    calls in any module — must not write a module global, read one the
    coordinator writes, or (when reached from a registered kernel) read
    a coordinator singleton.  Such state races under the thread
    executor and diverges silently under fork.

    Each violation is reported once, at the write or read itself, with
    the kernel -> site call chain.  State with a real ownership-transfer
    protocol is exempted by an inline suppression on the write; the
    executor's own pool entry points are the sanctioned readers of the
    singletons.
    """

    id = "REP201"
    title = "kernel scope touches no module-global or coordinator state"

    def check(self, module: LintModule, ctx: LintContext) -> Iterator[Finding]:
        touching = [
            fs
            for fs in ctx.module_summary(module).functions.values()
            if fs.global_writes or fs.singleton_reads
        ]
        if not touching:
            return
        contexts = ctx.exec_contexts(module)
        prefix = f"{module.modpath}::"

        def via(qual: str) -> str:
            chain = contexts.worker_chain(prefix + qual)
            return " -> ".join(fid_display(fid) for fid in chain)

        kernel_written: set[str] = set()
        coordinator_writer: dict[str, str] = {}
        for fs in touching:
            scope = contexts.classify(prefix + fs.name)
            if scope == "coordinator":
                for name, _lineno in fs.global_writes:
                    coordinator_writer.setdefault(name, fs.name)
            if scope not in ("kernel", "both"):
                continue
            for name, lineno in fs.global_writes:
                kernel_written.add(name)
                yield Finding(
                    self.id,
                    module.path,
                    lineno,
                    1,
                    f"module global {name!r} is written in {fs.name!r}, which "
                    f"runs in kernel scope (path: {via(fs.name)}); concurrent "
                    "kernel invocations race on it under the thread executor "
                    "and diverge silently under fork",
                )
            if prefix + fs.name in contexts.kernel:
                for name, lineno in fs.singleton_reads:
                    yield Finding(
                        self.id,
                        module.path,
                        lineno,
                        1,
                        f"coordinator singleton {name} is read in {fs.name!r}, "
                        f"which a registered kernel reaches (path: "
                        f"{via(fs.name)}); it holds the coordinator's value in "
                        "some executors only — pass what the kernel needs "
                        "through the context or the spec",
                    )
        # A kernel-written global is covered by its write findings, and the
        # singletons are the executor's own hand-off to its pool entries.
        shared = coordinator_writer.keys() - kernel_written - set(COORDINATOR_SINGLETONS)
        for name, sites in sorted(_global_reads(module, frozenset(shared)).items()):
            for qual, node in sites:
                if contexts.classify(prefix + qual) in ("kernel", "both"):
                    yield module.finding(
                        self.id,
                        node,
                        f"module global {name!r} is written in coordinator "
                        f"scope ({coordinator_writer[name]!r}) and read here in "
                        f"kernel scope (path: {via(qual)}) with no ownership "
                        "transfer; pass it through the task spec instead",
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
    the coordinator's file descriptors.  A resource a *helper* returns is
    SAN202's to witness: it round-trips every spec of every run.
    """

    id = "REP202"
    title = "no fork-unsafe OS resources on specs or captured by kernels"

    def check(self, module: LintModule, ctx: LintContext) -> Iterator[Finding]:
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

        def value_kind(value: ast.AST) -> str | None:
            """The resource kind the expression yields, if it yields one."""
            if isinstance(value, ast.GeneratorExp):
                return "live generator"
            if not isinstance(value, ast.Call):
                return None
            dotted = module.dotted(value.func)
            if dotted is None:
                return None
            return resource_kind(dotted) or ("live generator" if dotted in gen_defs else None)

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
                module_resources[bound_name(node)] = hit

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
            lookup: dict[str, str] = {}
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
                        lookup.setdefault(gname, kind)

            def arg_kind(value: ast.AST) -> str | None:
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
        self, module: LintModule, node: ast.AST, kind: str, where: str
    ) -> Finding:
        return module.finding(
            self.id,
            node,
            f"picklable spec {where} receives a {kind}; the "
            "fork/pickle transport cannot carry OS resources — pass a "
            "path or config value and open it inside the kernel",
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
    """REP205: a local bound to a freshly acquired resource (an open
    file, a run writer) must be released on *every* CFG path out of the
    acquisition, exception edges included: context-managed, closed in a
    ``finally`` that starts right after the acquisition, or handed to
    another owner.  A bare ``x.close()`` leaks the handle on every
    exception path between acquisition and close, and so does a
    ``finally: x.close()`` when statements between the acquisition and
    the ``try`` can raise.
    """

    id = "REP205"
    title = "acquired resources released on all paths, exception edges included"

    def check(self, module: LintModule, ctx: LintContext) -> Iterator[Finding]:
        # scope -> {acquiring assignment: the factory's name}
        acquired: dict[ast.AST, dict[ast.AST, str]] = {}
        for node in module.nodes(ast.Assign):
            if (
                len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Call)
            ):
                dotted = module.dotted(node.value.func)
                if dotted is not None and is_resource_factory(dotted):
                    scope = next(
                        (a for a in module.ancestors(node) if isinstance(a, FUNCTION_DEFS)),
                        module.tree,
                    )
                    acquired.setdefault(scope, {})[node] = dotted.rpartition(".")[2]
        for scope, hits in acquired.items():
            cfg = build_cfg(scope, MODULE_BODY if scope is module.tree else None)
            live = cfg.live()
            for block in cfg.blocks:
                node = block.node
                source = hits.get(node) if block.index in live else None
                if source is None:
                    continue
                name = node.targets[0].id
                if self._released_on_all_paths(cfg, block, name):
                    continue
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


CFG_RULES: tuple[Rule, ...] = (
    KernelStateIsolation(),
    ForkUnsafeCapture(),
    CommitProtocolOrder(),
    ResourceRelease(),
)
