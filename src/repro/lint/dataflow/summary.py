"""Per-module dataflow summaries.

A :class:`ModuleSummary` condenses one source file into the facts the
fixpoint propagator needs, without keeping the AST around: for every
function (and the module body, as the pseudo-function ``<module>``) —

* ``calls``: the alias-resolved dotted targets of every call site,
  with constructor-typed locals resolved to ``Class.method`` targets
  and ``self.x()`` kept symbolic for class-local resolution;
* ``return_taints``: what escapes through ``return``/``yield`` — a
  nondeterminism source, an unpicklable value, a freshly acquired
  resource, or the result of a call (resolved later at fixpoint);
* ``param_attr_writes``: ``param.attr = value`` effects, so a helper
  that smuggles a lambda onto a caller-supplied spec is visible at the
  call site;
* ``global_writes`` / ``singleton_reads``: module-global mutations and
  coordinator-singleton reads — the sites REP201 reports when the
  function runs in kernel scope.

Summaries are plain data; nothing here keeps a reference to the tree.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.lint.core import (
    FUNCTION_DEFS,
    attr_root,
    is_set_expr,
    module_level_names,
    receiver_named,
)
from repro.lint.dataflow.sources import (
    BUILTIN_NAMES,
    HASH_ORDER,
    ORDER_FREE_CALLS,
    nondet_call,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lint.core import LintModule

__all__ = [
    "COORDINATOR_SINGLETONS",
    "FunctionSummary",
    "MUTATORS",
    "ModuleSummary",
    "TRACER_NAMES",
    "is_resource_factory",
    "summarize_module",
]

MODULE_BODY = "<module>"

#: Taint kinds carried in ``return_taints``: ``nondet`` (wall clock /
#: RNG / hash order), ``unpicklable`` (lambda, local def), ``resource``
#: (open handle / writer / span), ``call`` (deferred to fixpoint).
Taint = tuple[str, str, int]

#: Receiver names treated as tracers (plus any ``<expr>.tracer``).
TRACER_NAMES = ("tracer", "trc")

#: Coordinator-side singletons kernels must never touch.
COORDINATOR_SINGLETONS = ("_FORK_CONTEXT", "_KERNELS")

#: Calls that acquire a resource needing close/with; bare names match
#: any terminal segment, dotted names match exactly.
RESOURCE_FACTORIES = ("open", "repro.io.runio.RunWriter")

#: Method names that mutate a container in place.
MUTATORS = frozenset(
    {
        "append", "add", "update", "setdefault", "pop", "popitem", "clear",
        "extend", "remove", "discard", "insert", "write",
    }
)

#: Rules whose inline suppression also silences the matching dataflow
#: source when it is *collected into a summary* (a justified violation
#: must not re-surface at every transitive call site).
_SOURCE_SUPPRESSORS = {
    "nondet": frozenset({"REP101"}),
    "unpicklable": frozenset({"REP102"}),
    "resource": frozenset({"REP005", "REP205"}),
    "state": frozenset({"REP201"}),
}


def is_resource_factory(dotted: str) -> bool:
    terminal = dotted.rpartition(".")[2]
    return any(
        f == dotted or ("." not in f and f == terminal) for f in RESOURCE_FACTORIES
    )


@dataclass(slots=True)
class FunctionSummary:
    """One function's externally visible dataflow facts."""

    name: str
    modpath: str
    lineno: int = 0
    cls: str | None = None
    params: tuple[str, ...] = ()
    #: (dotted target, lineno, col) for every call site in this scope.
    calls: list[tuple[str, int, int]] = field(default_factory=list)
    #: Taints escaping through return/yield: (kind, detail, lineno).
    return_taints: list[Taint] = field(default_factory=list)
    #: ``params[i].attr = value``: (param index, value kind, detail, lineno)
    #: where value kind is "param" (detail: source index), "unpicklable"
    #: or "call" (detail: dotted target).
    param_attr_writes: list[tuple[int, str, str, int]] = field(default_factory=list)
    #: Module-global names this function writes or mutates.
    global_writes: list[tuple[str, int]] = field(default_factory=list)
    #: Coordinator singleton names this function reads.
    singleton_reads: list[tuple[str, int]] = field(default_factory=list)


@dataclass(slots=True)
class ModuleSummary:
    """Every function summary of one module, plus its defined classes."""

    modpath: str
    functions: dict[str, FunctionSummary] = field(default_factory=dict)
    classes: tuple[str, ...] = ()


# -- summarisation ------------------------------------------------------------


def summarize_module(module: "LintModule") -> ModuleSummary:
    """Summarise one parsed module (every def, method and the body)."""
    out = ModuleSummary(modpath=module.modpath)
    classes: list[str] = []
    for node in module.tree.body:
        if isinstance(node, FUNCTION_DEFS):
            out.functions[node.name] = _summarize_function(module, node, node.name, None)
        elif isinstance(node, ast.ClassDef):
            classes.append(node.name)
            for sub in node.body:
                if isinstance(sub, FUNCTION_DEFS):
                    qual = f"{node.name}.{sub.name}"
                    out.functions[qual] = _summarize_function(module, sub, qual, node.name)
    # The module body cannot write "its own" globals in the escape sense
    # (that is just definition), so global-write tracking is off for it.
    body = FunctionSummary(name=MODULE_BODY, modpath=module.modpath, lineno=1)
    defs = (*FUNCTION_DEFS, ast.ClassDef)
    _Analyzer(module, body, (), track_globals=False).run(
        [n for n in module.tree.body if not isinstance(n, defs)],
        [
            n
            for n in module.scope_nodes[module.tree]
            if not (isinstance(n, defs) and module.parents[n] is module.tree)
        ],
    )
    out.functions[MODULE_BODY] = body
    out.classes = tuple(classes)
    return out


def _summarize_function(
    module: "LintModule",
    fn: ast.FunctionDef | ast.AsyncFunctionDef,
    qualname: str,
    cls: str | None,
) -> FunctionSummary:
    params = tuple(a.arg for a in (*fn.args.posonlyargs, *fn.args.args))
    summary = FunctionSummary(
        name=qualname, modpath=module.modpath, lineno=fn.lineno, cls=cls, params=params
    )
    _Analyzer(module, summary, params).run(fn.body, module.scope_nodes[fn])
    return summary


class _Analyzer:
    """One pass (run twice, for loop-carried flows) over one scope."""

    def __init__(
        self,
        module: "LintModule",
        summary: FunctionSummary,
        params: tuple[str, ...],
        *,
        track_globals: bool = True,
    ) -> None:
        self.module = module
        self.summary = summary
        self.params = params
        self.env: dict[str, frozenset[tuple[str, str, int]]] = {}
        self.local_defs: dict[str, str] = {}
        self.ctor_types: dict[str, str] = {}
        self.set_locals: set[str] = set()
        self.locals: set[str] = set(params)
        #: Unshadowed name -> the module global it denotes: a module-level
        #: assignment by its own name, an import (another module's state)
        #: by its dotted path.
        self.module_globals: dict[str, str] = (
            {**module.aliases, **{n: n for n in module_level_names(module.tree)}}
            if track_globals
            else {}
        )
        #: Names a plain ``import`` binds: ``os.remove(...)`` calls a
        #: function of that module, it does not mutate a container.
        self.imported_modules = {
            alias.asname or alias.name.partition(".")[0]
            for node in module.nodes(ast.Import)
            for alias in node.names
        }
        self._recorded: set[tuple] = set()

    # -- suppression-aware recording ----------------------------------------

    def _suppressed(self, kind: str, lineno: int) -> bool:
        rules = self.module.suppressions.get(lineno)
        return bool(rules) and bool(rules & _SOURCE_SUPPRESSORS[kind])

    def _record(self, bucket: list, entry: tuple) -> None:
        key = (id(bucket), entry)
        if key not in self._recorded:
            self._recorded.add(key)
            bucket.append(entry)

    # -- driving ------------------------------------------------------------

    def run(self, body: list[ast.stmt], scope_nodes: list[ast.AST]) -> None:
        """Interpret ``body``; ``scope_nodes`` is the index's node list
        for the same scope (bindings are collected from it)."""
        self._collect_bindings(scope_nodes)
        for _ in range(2):  # second pass resolves loop-carried flows
            for stmt in body:
                self._exec(stmt)
        self.summary.calls.sort()
        self.summary.return_taints.sort()
        self.summary.param_attr_writes.sort()
        self.summary.global_writes.sort()
        self.summary.singleton_reads.sort()

    def _collect_bindings(self, scope_nodes: list[ast.AST]) -> None:
        for node in scope_nodes:
            if isinstance(node, FUNCTION_DEFS):
                self.local_defs[node.name] = "function"
                self.locals.add(node.name)
            elif isinstance(node, ast.ClassDef):
                self.local_defs[node.name] = "class"
                self.locals.add(node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                self.locals.add(node.id)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    self.locals.add(alias.asname or alias.name.partition(".")[0])
            elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
                dotted = self.module.dotted(node.value.func)
                if dotted and dotted.rpartition(".")[2][:1].isupper():
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            self.ctor_types[target.id] = dotted
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and getattr(
                node, "value", None
            ) is not None:
                if is_set_expr(node.value):
                    targets = (
                        node.targets if isinstance(node, ast.Assign) else [node.target]
                    )
                    for target in targets:
                        if isinstance(target, ast.Name):
                            self.set_locals.add(target.id)

    # -- call-target normalisation ------------------------------------------

    def call_target(self, func: ast.AST) -> str | None:
        """Dotted target of a call, with local receivers type-resolved."""
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            root = func.value.id
            if root == "self" and self.summary.cls:
                return f"self.{func.attr}"
            ctor = self.ctor_types.get(root)
            if ctor is not None:
                return f"{ctor}.{func.attr}"
        dotted = self.module.dotted(func)
        if dotted is None:
            return None
        root = dotted.partition(".")[0]
        if root in self.locals and root not in self.local_defs:
            return None  # a local value; its attribute calls are opaque
        return dotted

    # -- statements ----------------------------------------------------------

    def _exec(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return
        if isinstance(stmt, ast.Assign):
            taints = self.taints(stmt.value)
            for target in stmt.targets:
                self._assign(target, stmt.value, taints, stmt.lineno)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            self._assign(stmt.target, stmt.value, self.taints(stmt.value), stmt.lineno)
        elif isinstance(stmt, ast.AugAssign):
            taints = self.taints(stmt.value)
            if isinstance(stmt.target, ast.Name):
                prev = self.env.get(stmt.target.id, frozenset())
                self.env[stmt.target.id] = prev | taints
            else:
                self._assign(stmt.target, stmt.value, taints, stmt.lineno)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self._escape(self.taints(stmt.value))
        elif isinstance(stmt, ast.Global):
            if not self._suppressed("state", stmt.lineno):
                for name in stmt.names:
                    self._record(
                        self.summary.global_writes, (name, stmt.lineno)
                    )
        elif isinstance(stmt, ast.For):
            iter_taints = self.taints(stmt.iter)
            if isinstance(stmt.target, ast.Name):
                self.env[stmt.target.id] = iter_taints
            for sub in (*stmt.body, *stmt.orelse):
                self._exec(sub)
        elif isinstance(stmt, ast.While):
            self.taints(stmt.test)
            for sub in (*stmt.body, *stmt.orelse):
                self._exec(sub)
        elif isinstance(stmt, ast.If):
            self.taints(stmt.test)
            for sub in (*stmt.body, *stmt.orelse):
                self._exec(sub)
        elif isinstance(stmt, ast.With) or isinstance(stmt, ast.AsyncWith):
            for item in stmt.items:
                taints = self.taints(item.context_expr)
                if isinstance(item.optional_vars, ast.Name):
                    # Context-managed resources are released by the with.
                    self.env[item.optional_vars.id] = frozenset(
                        t for t in taints if t[0] != "resource"
                    )
            for sub in stmt.body:
                self._exec(sub)
        elif isinstance(stmt, ast.Try):
            for sub in (*stmt.body, *stmt.orelse, *stmt.finalbody):
                self._exec(sub)
            for handler in stmt.handlers:
                for sub in handler.body:
                    self._exec(sub)
        elif isinstance(stmt, ast.Expr):
            self.taints(stmt.value)
        else:  # Raise, Assert, Match, Delete, ... — generic recursion
            self._exec_children(stmt)

    def _exec_children(self, node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt):
                self._exec(child)
            elif isinstance(child, ast.expr):
                self.taints(child)
            else:  # match cases, withitems, ... — keep descending
                self._exec_children(child)

    def _assign(
        self,
        target: ast.AST,
        value: ast.expr,
        taints: frozenset[tuple[str, str, int]],
        lineno: int,
    ) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = taints
        elif isinstance(target, (ast.Tuple, ast.List)):
            for el in target.elts:
                self._assign(el, value, taints, lineno)
        elif isinstance(target, (ast.Attribute, ast.Subscript)):
            root = attr_root(target)
            if not isinstance(root, ast.Name):
                return
            if isinstance(target, ast.Attribute) and root.id in self.params:
                self._param_attr_write(root.id, value, taints, lineno)
            self._global_write(root, lineno)

    def _global_write(self, root: ast.AST, lineno: int) -> None:
        if not isinstance(root, ast.Name) or root.id in self.locals:
            return
        name = self.module_globals.get(root.id)
        if name is not None and not self._suppressed("state", lineno):
            self._record(self.summary.global_writes, (name, lineno))

    def _param_attr_write(
        self,
        param: str,
        value: ast.expr,
        taints: frozenset[tuple[str, str, int]],
        lineno: int,
    ) -> None:
        if self._suppressed("unpicklable", lineno):
            return
        idx = self.params.index(param)
        writes = self.summary.param_attr_writes
        if isinstance(value, ast.Name) and value.id in self.params:
            self._record(writes, (idx, "param", str(self.params.index(value.id)), lineno))
            return
        for kind, detail, _src_line in sorted(taints):
            if kind == "unpicklable":
                self._record(writes, (idx, "unpicklable", detail, lineno))
            elif kind == "call":
                self._record(writes, (idx, "call", detail, lineno))

    def _escape(self, taints: frozenset[tuple[str, str, int]]) -> None:
        for kind, detail, lineno in sorted(taints):
            self._record(self.summary.return_taints, (kind, detail, lineno))

    # -- expressions ---------------------------------------------------------

    def taints(self, node: ast.expr) -> frozenset[tuple[str, str, int]]:
        if isinstance(node, ast.Constant):
            return frozenset()
        if isinstance(node, ast.Name):
            out = set(self.env.get(node.id, frozenset()))
            if node.id in self.local_defs and not self._suppressed(
                "unpicklable", node.lineno
            ):
                out.add(
                    (
                        "unpicklable",
                        f"local {self.local_defs[node.id]} {node.id!r}",
                        node.lineno,
                    )
                )
            if node.id in COORDINATOR_SINGLETONS and not self._suppressed(
                "state", node.lineno
            ):
                self._record(self.summary.singleton_reads, (node.id, node.lineno))
            return frozenset(out)
        if isinstance(node, ast.Lambda):
            if self._suppressed("unpicklable", node.lineno):
                return frozenset()
            return frozenset({("unpicklable", "lambda", node.lineno)})
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            if node.value is not None:
                self._escape(self.taints(node.value))
            return frozenset()
        if isinstance(node, ast.Call):
            return self._call_taints(node)
        if isinstance(
            node, (ast.ListComp, ast.GeneratorExp, ast.SetComp, ast.DictComp)
        ):
            out: set[tuple[str, str, int]] = set()
            for gen in node.generators:
                out |= self.taints(gen.iter)
                if not isinstance(node, ast.SetComp) and self._is_set_like(gen.iter):
                    if not self._suppressed("nondet", node.lineno):
                        out.add(("nondet", HASH_ORDER, node.lineno))
            return frozenset(out)
        # Generic recursion: union over child expressions.
        out = set()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                out |= self.taints(child)
        if isinstance(node, ast.Attribute):
            # ``writer.bytes_written`` is a field of the resource, not
            # the resource: reading it does not transfer ownership.
            out = {t for t in out if t[0] != "resource"}
        return frozenset(out)

    def _call_taints(self, node: ast.Call) -> frozenset[tuple[str, str, int]]:
        arg_taints: set[tuple[str, str, int]] = set()
        for value in (*node.args, *(kw.value for kw in node.keywords)):
            arg_taints |= self.taints(value)
        dotted = self.call_target(node.func)
        lineno, col = node.lineno, node.col_offset

        # Mutating a module-level container through a method call is a
        # module-global write.
        if isinstance(node.func, ast.Attribute) and node.func.attr in MUTATORS:
            receiver = node.func.value
            if not (
                isinstance(receiver, ast.Name)
                and receiver.id in self.imported_modules
            ):
                self._global_write(attr_root(receiver), lineno)

        if dotted is not None:
            bare = "." not in dotted
            if not (bare and dotted in BUILTIN_NAMES):
                self._record(self.summary.calls, (dotted, lineno, col))

            classified = nondet_call(dotted, node)
            if classified is not None:
                if self._suppressed("nondet", lineno):
                    return frozenset(arg_taints)
                return frozenset(arg_taints | {("nondet", classified[0], lineno)})

            if dotted in ORDER_FREE_CALLS:
                if dotted == "sorted":
                    return frozenset(
                        t for t in arg_taints if t[1] != HASH_ORDER
                    )
                return frozenset()  # reduced to an order-free scalar/set

            if is_resource_factory(dotted):
                if not self._suppressed("resource", lineno):
                    name = dotted.rpartition(".")[2]
                    return frozenset(arg_taints | {("resource", name, lineno)})

            if dotted in ("list", "tuple") and node.args:
                if any(self._is_set_like(a) for a in node.args):
                    if not self._suppressed("nondet", lineno):
                        return frozenset(
                            arg_taints | {("nondet", HASH_ORDER, lineno)}
                        )

            if not (bare and dotted in BUILTIN_NAMES):
                return frozenset(arg_taints | {("call", dotted, lineno)})
            return frozenset(arg_taints)

        # Unresolvable target, e.g. a method on an untyped local: the
        # span() heuristic still applies; otherwise arg taints flow.
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "span"
            and receiver_named(node.func.value, TRACER_NAMES)
            and not self._suppressed("resource", lineno)
        ):
            return frozenset(arg_taints | {("resource", "tracer span", lineno)})
        return frozenset(arg_taints)

    def _is_set_like(self, node: ast.expr) -> bool:
        if is_set_expr(node):
            return True
        return isinstance(node, ast.Name) and node.id in self.set_locals
