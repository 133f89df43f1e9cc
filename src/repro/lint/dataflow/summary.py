"""Per-module summaries: the three whole-program facts with traffic.

A :class:`ModuleSummary` condenses one source file into what the call
graph and REP201 need, without keeping the AST around: for every
top-level function and method (and the module body, as the
pseudo-function ``<module>``) —

* ``calls``: the alias-resolved dotted target of every call the scope
  owns — in a statement, a comprehension, a lambda body, a default
  argument or the receiver of another call — with constructor-typed
  locals resolved to ``Class.method`` targets and ``self.x()`` kept
  symbolic for class-local resolution;
* ``global_writes`` / ``singleton_reads``: module-global mutations and
  coordinator-singleton reads — the sites REP201 reports when the
  function runs in kernel scope.

Each function is one scan of the node list the :class:`LintModule`
index already holds for its scope; no statement is interpreted and no
value is tracked.  (The return-taint summaries and their fixpoint were
retired at commit ``0192689``: ``docs/STATIC_ANALYSIS.md`` names the
witness each transitive contract moved to.)
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.lint.core import FUNCTION_DEFS, attr_root, module_level_names
from repro.lint.dataflow.sources import BUILTIN_NAMES

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lint.core import LintModule

__all__ = [
    "COORDINATOR_SINGLETONS",
    "FunctionSummary",
    "MODULE_BODY",
    "MUTATORS",
    "ModuleSummary",
    "summarize_module",
]

MODULE_BODY = "<module>"

#: Coordinator-side singletons kernels must never touch.
COORDINATOR_SINGLETONS = ("_FORK_CONTEXT", "_KERNELS")

#: Method names that mutate a container in place.
MUTATORS = frozenset(
    {
        "append", "add", "update", "setdefault", "pop", "popitem", "clear",
        "extend", "remove", "discard", "insert", "write",
    }
)


@dataclass(slots=True)
class FunctionSummary:
    """One function's call sites and state touches."""

    name: str
    modpath: str
    cls: str | None = None
    #: (dotted target, lineno, col) for every call site in this scope.
    calls: list[tuple[str, int, int]] = field(default_factory=list)
    #: Module-global names this function writes or mutates: (name, lineno).
    global_writes: list[tuple[str, int]] = field(default_factory=list)
    #: Coordinator singleton names this function reads: (name, lineno).
    singleton_reads: list[tuple[str, int]] = field(default_factory=list)


@dataclass(slots=True)
class ModuleSummary:
    """Every function summary of one module, keyed by qualified name."""

    modpath: str
    #: Content digest of the source this was summarised from.
    digest: str
    functions: dict[str, FunctionSummary] = field(default_factory=dict)


def summarize_module(module: "LintModule") -> ModuleSummary:
    """Summarise one parsed module (every def, method and the body)."""
    out = ModuleSummary(modpath=module.modpath, digest=module.digest)
    # Unshadowed name -> the module global it denotes: a module-level
    # assignment by its own name, an import (another module's state) by
    # its dotted path.
    module_globals = {**module.aliases, **{n: n for n in module_level_names(module.tree)}}
    # Names a plain ``import`` binds: ``os.remove(...)`` calls a function
    # of that module, it does not mutate a container.
    imported_modules = {
        alias.asname or alias.name.partition(".")[0]
        for node in module.nodes(ast.Import)
        for alias in node.names
    }

    def scan(scope: ast.AST, qualname: str, cls: str | None, tracked: dict[str, str]) -> None:
        out.functions[qualname] = _scan_scope(
            module, scope, FunctionSummary(qualname, module.modpath, cls), tracked, imported_modules
        )

    for node in module.tree.body:
        if isinstance(node, FUNCTION_DEFS):
            scan(node, node.name, None, module_globals)
        elif isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, FUNCTION_DEFS):
                    scan(sub, f"{node.name}.{sub.name}", node.name, module_globals)
    # The module body cannot write "its own" globals in the escape sense
    # (that is just definition), so global-write tracking is off for it.
    scan(module.tree, MODULE_BODY, None, {})
    return out


def _scan_scope(
    module: "LintModule",
    scope: ast.AST,
    summary: FunctionSummary,
    module_globals: dict[str, str],
    imported_modules: set[str],
) -> FunctionSummary:
    """Fill ``summary`` from one scan of the nodes ``scope`` owns (its
    own statements and expressions, nested lambdas and comprehensions
    included, nested defs' bodies not)."""
    bound: set[str] = set()  # names the scope binds: opaque receivers
    local_defs: set[str] = set()  # ...except its own defs/classes
    ctor_types: dict[str, str] = {}  # local -> the class it was built from
    calls: list[ast.Call] = []
    writes: list[tuple[ast.AST, int]] = []  # (root of the written place, lineno)
    reads: list[ast.Name] = []
    declared: set[tuple[str, int]] = set()

    def unsuppressed(lineno: int) -> bool:
        # A justified write or read must not re-surface as a REP201
        # finding, nor mark the global as coordinator-written.
        return "REP201" not in module.suppressions.get(lineno, ())

    for node in module.scope_nodes[scope]:
        if isinstance(node, ast.Call):
            calls.append(node)
            func = node.func
            # Mutating a module-level container through a method call is
            # a module-global write.
            if isinstance(func, ast.Attribute) and func.attr in MUTATORS:
                receiver = func.value
                if not (isinstance(receiver, ast.Name) and receiver.id in imported_modules):
                    writes.append((attr_root(receiver), node.lineno))
        elif isinstance(node, ast.Name):
            if isinstance(node.ctx, ast.Store):
                bound.add(node.id)
            elif node.id in COORDINATOR_SINGLETONS and unsuppressed(node.lineno):
                reads.append(node)
        elif isinstance(node, (ast.Attribute, ast.Subscript)):
            if isinstance(node.ctx, ast.Store):
                writes.append((attr_root(node), node.lineno))
        elif isinstance(node, ast.arg):
            bound.add(node.arg)
        elif isinstance(node, (*FUNCTION_DEFS, ast.ClassDef)):
            bound.add(node.name)
            local_defs.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.Global):
            if unsuppressed(node.lineno):
                declared.update((name, node.lineno) for name in node.names)
        elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            dotted = module.dotted(node.value.func)
            if dotted and dotted.rpartition(".")[2][:1].isupper():
                ctor_types.update(
                    (t.id, dotted) for t in node.targets if isinstance(t, ast.Name)
                )

    # Bindings are complete only now, so sites resolve after the scan.
    targets = set()
    for node in calls:
        dotted = _call_target(module, node.func, summary.cls, bound, local_defs, ctor_types)
        if dotted is not None and dotted not in BUILTIN_NAMES:
            targets.add((dotted, node.lineno, node.col_offset))
    for root, lineno in writes:
        if isinstance(root, ast.Name) and root.id not in bound:
            name = module_globals.get(root.id)
            if name is not None and unsuppressed(lineno):
                declared.add((name, lineno))
    summary.calls = sorted(targets)
    summary.global_writes = sorted(declared)
    # The root of a written place is that write's site, not also a read.
    written = {root for root, _lineno in writes}
    summary.singleton_reads = sorted(
        {(node.id, node.lineno) for node in reads if node not in written}
    )
    return summary


def _call_target(
    module: "LintModule",
    func: ast.AST,
    cls: str | None,
    bound: set[str],
    local_defs: set[str],
    ctor_types: dict[str, str],
) -> str | None:
    """Dotted target of a call, with local receivers type-resolved."""
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        root = func.value.id
        if root == "self" and cls:
            return f"self.{func.attr}"
        ctor = ctor_types.get(root)
        if ctor is not None:
            return f"{ctor}.{func.attr}"
    dotted = module.dotted(func)
    if dotted is None:
        return None
    root = dotted.partition(".")[0]
    if root in bound and root not in local_defs:
        return None  # a local value; its attribute calls are opaque
    return dotted
