"""The per-file and whole-program rule implementations.

Each rule encodes one contract the determinism/performance story rests
on; ``docs/STATIC_ANALYSIS.md`` documents the *why* behind every one.
Rules are pure AST analyses over the :class:`LintModule` index — linting
never imports repository code.  Every rule here checks a site where it
stands; the one rule that follows calls is REP201 (``cfg/rules.py``),
over the call graph built by ``repro.lint.dataflow``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.cfg.rules import CFG_RULES
from repro.lint.core import (
    FUNCTION_DEFS,
    Finding,
    LintContext,
    LintModule,
    Rule,
    is_set_expr,
    local_bindings,
    receiver_named,
    registered_kernels,
    terminal_name,
)
from repro.lint.dataflow.sources import ORDER_FREE_CALLS, nondet_call, nondet_reference

__all__ = ["ALL_RULES", "DETERMINISTIC_SCOPES", "Rule", "rule_by_id"]

#: Module-path prefixes whose code feeds job output, counters or traces
#: — the determinism scope for REP101/REP006.  The set is closed under
#: ``src/repro`` imports (``tests/lint/test_self_clean.py`` recomputes
#: the closure), so a clock read a deterministic function reaches
#: through any chain of helpers sits in a module REP101 checks.
DETERMINISTIC_SCOPES = (
    "repro/analysis/",
    "repro/core/",
    "repro/mapreduce/",
    "repro/exec/",
    "repro/io/",
    "repro/hdfs/",
    "repro/obs/",
    "repro/workloads/",
    "repro/simulator/",
)


# -- REP002: kernel I/O purity ------------------------------------------------

#: Call roots kernels may never reach: real filesystem, network,
#: processes, and ambient-state modules.  Task I/O goes through the
#: shadow ``LocalDisk`` the coordinator absorbs.
_IMPURE_ROOTS = frozenset(
    {
        "os",
        "io",
        "socket",
        "subprocess",
        "shutil",
        "tempfile",
        "pathlib",
        "urllib",
        "http",
        "requests",
    }
)

_IMPURE_BUILTINS = frozenset({"open", "print", "input", "exec", "eval", "globals"})


class KernelPurity(Rule):
    """REP002: functions registered as task kernels do no I/O of their own.

    A kernel runs inline, on a thread or in a forked worker; opening
    real files or sockets, spawning processes or printing happens in
    some executors and not others.  Task I/O goes through the shadow
    ``LocalDisk``.  (What *state* a kernel may touch is REP201's
    contract.)
    """

    id = "REP002"
    title = "task kernels do no I/O outside the shadow disk"

    def check(self, module: LintModule, ctx: LintContext) -> Iterator[Finding]:
        if module.modpath != ctx.kernel_modpath:
            return
        tree = module.tree
        defs = {n.name: n for n in tree.body if isinstance(n, FUNCTION_DEFS)}
        # Close over module-local helpers the kernels call.
        reachable: dict[str, ast.FunctionDef] = {}
        frontier = [name for name in registered_kernels(tree) if name in defs]
        while frontier:
            name = frontier.pop()
            if name in reachable:
                continue
            reachable[name] = defs[name]
            for node in module.subtree(defs[name]):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id in defs
                ):
                    frontier.append(node.func.id)
        for fn in reachable.values():
            local = local_bindings(module, fn)
            where = f"kernel {fn.name!r}"
            for node in module.subtree(fn):
                dotted = module.dotted(node.func) if isinstance(node, ast.Call) else None
                if dotted is None:
                    continue
                root = dotted.partition(".")[0]
                if root in _IMPURE_ROOTS and root not in local:
                    yield module.finding(
                        self.id, node, f"{where} calls impure API {dotted}()"
                    )
                elif dotted in _IMPURE_BUILTINS and dotted not in local:
                    yield module.finding(
                        self.id, node, f"{where} calls builtin {dotted}()"
                    )


# -- REP005: tracer discipline ------------------------------------------------

#: Receiver names treated as tracers (plus any ``<expr>.tracer``).
TRACER_NAMES = ("tracer", "trc")


class TracerDiscipline(Rule):
    """REP005: spans must be context-managed.

    A span handle left unclosed on an exception path corrupts the
    logical clock for the rest of the trace.
    """

    id = "REP005"
    title = "spans must be context-managed"

    def check(self, module: LintModule, ctx: LintContext) -> Iterator[Finding]:
        for node in module.nodes(ast.Call):
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "span"
                and receiver_named(node.func.value, TRACER_NAMES)
                and not isinstance(module.parents.get(node), ast.withitem)
            ):
                yield module.finding(
                    self.id,
                    node,
                    "span() outside a with-statement; the handle must be "
                    "closed on all paths (use `with tracer.span(...)`)",
                )


# -- REP006: unordered set iteration ------------------------------------------

#: Set methods whose result is itself a set.
_SET_PRODUCING_METHODS = frozenset(
    {"difference", "union", "intersection", "symmetric_difference", "copy"}
)

_SET_BINOPS = (ast.Sub, ast.BitOr, ast.BitAnd, ast.BitXor)


class NoUnorderedIteration(Rule):
    """REP006: iterating a set/frozenset without ``sorted(...)`` in
    output- or trace-affecting code.  Set iteration order depends on the
    per-process hash seed, so it silently varies across runs.
    """

    id = "REP006"
    title = "no unordered set iteration in deterministic code"

    def check(self, module: LintModule, ctx: LintContext) -> Iterator[Finding]:
        if not module.modpath.startswith(DETERMINISTIC_SCOPES):
            return
        set_attrs = _class_set_attrs(module)
        for scope in module.scopes:
            nodes = module.scope_nodes[scope]
            set_locals = _scope_set_locals(nodes)
            unordered_dicts = _scope_unordered_dicts(nodes, set_locals)
            for site, iter_expr in _iteration_sites(nodes):
                if self._is_set_like(module, iter_expr, set_locals, set_attrs):
                    message = (
                        "iteration over a set has hash-seed-dependent order; "
                        "wrap it in sorted(...)"
                    )
                elif _is_unordered_dict_view(iter_expr, unordered_dicts):
                    message = (
                        "iteration over a dict built from an unordered source "
                        "has hash-seed-dependent order; wrap it in sorted(...)"
                    )
                else:
                    continue
                if self._order_free_context(module, site):
                    continue
                yield module.finding(self.id, iter_expr, message)

    def _is_set_like(
        self,
        module: LintModule,
        node: ast.AST,
        set_locals: set[str],
        set_attrs: dict[ast.ClassDef, set[str]],
    ) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            fname = terminal_name(node.func)
            if isinstance(node.func, ast.Name) and fname in ("set", "frozenset"):
                return True
            if (
                isinstance(node.func, ast.Attribute)
                and fname in _SET_PRODUCING_METHODS
                and self._is_set_like(module, node.func.value, set_locals, set_attrs)
            ):
                return True
            return False
        if isinstance(node, ast.Name):
            return node.id in set_locals
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            for ancestor in module.ancestors(node):
                if isinstance(ancestor, ast.ClassDef):
                    return node.attr in set_attrs.get(ancestor, set())
            return False
        if isinstance(node, ast.BinOp) and isinstance(node.op, _SET_BINOPS):
            return self._is_set_like(
                module, node.left, set_locals, set_attrs
            ) or self._is_set_like(module, node.right, set_locals, set_attrs)
        return False

    def _order_free_context(self, module: LintModule, site: ast.AST) -> bool:
        """True when the iteration's result cannot depend on order."""
        if isinstance(site, ast.SetComp):
            return True
        for ancestor in module.ancestors(site):
            if isinstance(ancestor, ast.Call):
                fname = terminal_name(ancestor.func)
                if fname in ORDER_FREE_CALLS or fname in _SET_PRODUCING_METHODS:
                    return True
            if isinstance(ancestor, ast.SetComp):
                return True
            if isinstance(ancestor, ast.stmt):
                return False
        return False


def _is_set_annotation(node: ast.AST | None) -> bool:
    if node is None:
        return False
    if isinstance(node, ast.Name):
        return node.id in ("set", "frozenset")
    if isinstance(node, ast.Subscript):
        return _is_set_annotation(node.value)
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value.partition("[")[0].strip() in ("set", "frozenset")
    return False


def _set_binding(node: ast.AST) -> ast.AST | None:
    """The single target a set-valued assignment binds, or None."""
    if isinstance(node, ast.AnnAssign) and (
        _is_set_annotation(node.annotation)
        or (node.value is not None and is_set_expr(node.value))
    ):
        return node.target
    return None


def _scope_set_locals(nodes: list[ast.AST]) -> set[str]:
    names: set[str] = set()
    for node in nodes:
        if isinstance(node, ast.Assign) and is_set_expr(node.value):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(_set_binding(node), ast.Name):
            names.add(node.target.id)
    return names


def _is_dict_from_unordered(node: ast.AST, set_locals: set[str]) -> bool:
    """``dict.fromkeys(<set>)``, ``dict(<set>)`` or a dict comprehension
    over a set: the dict inherits hash-seed-dependent key order."""

    def set_like(n: ast.AST) -> bool:
        return is_set_expr(n) or (isinstance(n, ast.Name) and n.id in set_locals)

    if isinstance(node, ast.Call) and node.args:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "fromkeys"
            and isinstance(func.value, ast.Name)
            and func.value.id == "dict"
        ):
            return set_like(node.args[0])
        if isinstance(func, ast.Name) and func.id == "dict":
            return set_like(node.args[0])
    if isinstance(node, ast.DictComp):
        return any(set_like(gen.iter) for gen in node.generators)
    return False


def _scope_unordered_dicts(nodes: list[ast.AST], set_locals: set[str]) -> set[str]:
    names: set[str] = set()
    for node in nodes:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        if _is_dict_from_unordered(value, set_locals):
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def _is_unordered_dict_view(node: ast.AST, unordered_dicts: set[str]) -> bool:
    if isinstance(node, ast.Name):
        return node.id in unordered_dicts
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("keys", "values", "items")
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id in unordered_dicts
    )


def _class_set_attrs(module: LintModule) -> dict[ast.ClassDef, set[str]]:
    """class -> ``self.<attr>`` names bound to sets anywhere below it."""
    out: dict[ast.ClassDef, set[str]] = {}
    for node in module.nodes(ast.Assign, ast.AnnAssign):
        if isinstance(node, ast.Assign):
            target = node.targets[0] if is_set_expr(node.value) else None
        else:
            target = _set_binding(node)
        if (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            for ancestor in module.ancestors(node):
                if isinstance(ancestor, ast.ClassDef):
                    out.setdefault(ancestor, set()).add(target.attr)
    return out


def _iteration_sites(nodes: list[ast.AST]) -> Iterator[tuple[ast.AST, ast.AST]]:
    """(site, iterated-expression) pairs within one scope."""
    for node in nodes:
        if isinstance(node, ast.For):
            yield node, node.iter
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            for gen in node.generators:
                yield node, gen.iter
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("list", "tuple", "enumerate", "iter")
            and len(node.args) == 1
        ):
            yield node, node.args[0]


# -- REP007: __slots__ on hot-path classes ------------------------------------


class SlotsOnHotPaths(Rule):
    """REP007: classes in the hot-path modules named by
    ``docs/PERFORMANCE.md`` must declare ``__slots__`` (directly or via
    ``@dataclass(slots=True)``) — per-instance dicts cost measurable
    memory and attribute-lookup time on these paths.
    """

    id = "REP007"
    title = "__slots__ required on hot-path classes"

    _EXEMPT_BASES = frozenset({"Protocol", "Exception", "BaseException", "Enum"})

    def check(self, module: LintModule, ctx: LintContext) -> Iterator[Finding]:
        if module.modpath not in ctx.hot_path_modules:
            return
        for node in module.nodes(ast.ClassDef):
            if not self._has_slots(node):
                yield module.finding(
                    self.id,
                    node,
                    f"hot-path class {node.name} has no __slots__ "
                    "(add __slots__ or @dataclass(slots=True))",
                )

    def _has_slots(self, cls: ast.ClassDef) -> bool:
        for base in cls.bases:
            name = terminal_name(base)
            if name in self._EXEMPT_BASES or (
                name and name.endswith(("Error", "Exception", "Warning"))
            ):
                return True
        for deco in cls.decorator_list:
            if isinstance(deco, ast.Call) and terminal_name(deco.func) == "dataclass":
                for kw in deco.keywords:
                    if (
                        kw.arg == "slots"
                        and isinstance(kw.value, ast.Constant)
                        and kw.value.value is True
                    ):
                        return True
        for stmt in cls.body:
            if isinstance(stmt, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__slots__" for t in stmt.targets
            ):
                return True
            if (
                isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)
                and stmt.target.id == "__slots__"
            ):
                return True
        return False


# -- REP101: nondeterminism ---------------------------------------------------


class Nondeterminism(Rule):
    """REP101: engine/kernel/core code may not read wall clocks or OS
    entropy.  Randomness must flow through an explicitly seeded
    generator.  A read laundered through a helper is caught where it
    stands: every module deterministic code imports is itself in
    ``DETERMINISTIC_SCOPES``.

    A source taken as a value (bound, passed or used as a default) is
    flagged where it is taken: the call it feeds is out of sight.

    ``time.perf_counter``/``time.process_time`` stay legal: they feed the
    advisory ``time.*`` timers that are excluded from determinism
    comparisons (see ``docs/OBSERVABILITY.md``).
    """

    id = "REP101"
    title = "no wall-clock or unseeded-randomness reads in deterministic scope"

    def check(self, module: LintModule, ctx: LintContext) -> Iterator[Finding]:
        if not module.modpath.startswith(DETERMINISTIC_SCOPES):
            return
        for node in module.nodes(ast.Call):
            dotted = module.dotted(node.func)
            message = nondet_call(dotted, node) if dotted is not None else None
            if message is not None:
                yield module.finding(self.id, node, message)
        for node in module.nodes(ast.Name, ast.Attribute):
            if _taken_as_value(module, node):
                dotted = module.dotted(node)
                message = nondet_reference(dotted) if dotted is not None else None
                if message is not None:
                    yield module.finding(self.id, node, message)


def _taken_as_value(module: LintModule, node: ast.AST) -> bool:
    """``node`` is bound (``perf = time.time``), passed (``f(time.time)``)
    or a default (``def f(clock=time.time)``) rather than called."""
    parent = module.parents.get(node)
    if isinstance(parent, (ast.Assign, ast.AnnAssign, ast.NamedExpr)):
        return parent.value is node
    if isinstance(parent, ast.Call):
        return parent.func is not node
    return isinstance(parent, (ast.keyword, ast.arguments))


ALL_RULES: tuple[Rule, ...] = (
    KernelPurity(),
    TracerDiscipline(),
    NoUnorderedIteration(),
    SlotsOnHotPaths(),
    Nondeterminism(),
    *CFG_RULES,
)


def rule_by_id(rule_id: str) -> Rule:
    for rule in ALL_RULES:
        if rule.id == rule_id:
            return rule
    raise KeyError(f"unknown rule {rule_id!r}")
