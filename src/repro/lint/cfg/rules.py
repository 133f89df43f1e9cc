"""REP201, REP202: the kernel-isolation rules.

These rules sit on the execution-context model (``cfg/context.py``), on
top of the whole-program call graph.  ``docs/STATIC_ANALYSIS.md``
documents the contract behind each.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.core import (
    Finding,
    LintContext,
    LintModule,
    Rule,
    local_bindings,
    module_defs,
    registered_kernels,
    terminal_name,
)
from repro.lint.dataflow.graph import fid_display
from repro.lint.dataflow.summary import COORDINATOR_SINGLETONS

__all__ = ["CFG_RULES", "RESOURCE_KINDS", "resource_kind"]


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

#: Calls that produce fork-unsafe OS resources (REP202 forbids them on
#: picklable spec fields and in kernel closures) -> the kind REP202
#: names in findings.  Terminal-segment keys ("open") match bare
#: builtins; dotted keys match the alias-resolved call target exactly.
RESOURCE_KINDS: dict[str, str] = {
    "open": "open file handle",
    "tempfile.NamedTemporaryFile": "open file handle",
    "tempfile.TemporaryFile": "open file handle",
    "socket.socket": "socket",
    "socket.create_connection": "socket",
    "subprocess.Popen": "live process handle",
    "threading.Lock": "thread lock",
    "threading.RLock": "thread lock",
    "threading.Condition": "condition variable",
    "threading.Semaphore": "semaphore",
    "threading.BoundedSemaphore": "semaphore",
    "threading.Event": "thread event",
}


def resource_kind(dotted: str) -> str | None:
    """The REP202 resource kind of a call target, or None."""
    return RESOURCE_KINDS.get(dotted) or RESOURCE_KINDS.get(dotted.rpartition(".")[2])



class ForkUnsafeCapture(Rule):
    """REP202: OS resources (open files, sockets, locks, live process
    handles, live generators) must never land on a picklable ``*Spec``
    field or be captured by a registered kernel from module scope — the
    fork/pickle transport cannot carry them, and under fork they alias
    the coordinator's file descriptors.  A resource a *helper* returns is
    not followed: no function in ``src/repro`` returns one
    (``test_no_helper_returns_a_fresh_resource``).
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


CFG_RULES: tuple[Rule, ...] = (
    KernelStateIsolation(),
    ForkUnsafeCapture(),
)
