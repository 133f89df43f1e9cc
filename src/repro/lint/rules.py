"""The rule implementations.

Each rule encodes one contract the determinism/performance story rests
on; ``docs/STATIC_ANALYSIS.md`` documents the *why* behind every one.
Rules are pure AST analyses over the :class:`LintModule` index — linting
never imports repository code — and each checks a site where it stands.
"""

from __future__ import annotations

import ast
from typing import Iterator

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
from repro.lint.sources import nondet_call, nondet_reference

__all__ = ["ALL_RULES", "DETERMINISTIC_SCOPES", "Rule", "kernel_reach", "rule_by_id"]

#: Module-path prefixes whose code feeds job output, counters or traces
#: — the determinism scope for REP101.  The set is closed under
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


def kernel_reach(module: LintModule) -> dict[str, ast.AST]:
    """The module-level defs a registered kernel reaches: the kernels and
    the module-local helpers they call, by name -> def."""
    defs = {n.name: n for n in module.tree.body if isinstance(n, FUNCTION_DEFS)}
    reachable: dict[str, ast.AST] = {}
    frontier = [name for name in registered_kernels(module.tree) if name in defs]
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
    return reachable


class KernelPurity(Rule):
    """REP002: functions registered as task kernels do no I/O of their own.

    A kernel runs inline, on a thread or in a forked worker; opening
    real files or sockets, spawning processes or printing happens in
    some executors and not others.  Task I/O goes through the shadow
    ``LocalDisk``.  (What *state* a kernel may touch is checked at run
    time: ``tests/exec/test_module_state.py``.)
    """

    id = "REP002"
    title = "task kernels do no I/O outside the shadow disk"

    def check(self, module: LintModule, ctx: LintContext) -> Iterator[Finding]:
        if module.modpath != ctx.kernel_modpath:
            return
        for fn in kernel_reach(module).values():
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
    SlotsOnHotPaths(),
    Nondeterminism(),
)


def rule_by_id(rule_id: str) -> Rule:
    for rule in ALL_RULES:
        if rule.id == rule_id:
            return rule
    raise KeyError(f"unknown rule {rule_id!r}")
