"""Lint driver: module model, suppression comments, registries, runner.

A :class:`LintModule` wraps one parsed source file with the facts every
rule needs, built by *one* traversal: nodes by type, parent links,
per-scope node lists and import aliases.  Rules iterate that index and
never walk the tree themselves.  A :class:`LintContext` carries the
run-wide registries — the kernel module, the hot-path module list —
read *statically* from the tree so linting never imports repository
code.
"""

from __future__ import annotations

import ast
import re
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from repro.lint.config import LintConfig

__all__ = [
    "Finding",
    "LintContext",
    "LintModule",
    "Rule",
    "dotted_name",
    "iter_py_files",
    "lint_paths",
    "lint_source",
    "module_path_for",
]

#: ``# reprolint: disable=REP002,REP101 -- why this is fine``
_SUPPRESS_RE = re.compile(
    r"#\s*reprolint:\s*disable=(?P<rules>REP\d{3}(?:\s*,\s*REP\d{3})*)"
    r"(?:\s*--\s*(?P<reason>.*))?"
)

#: Where kernels are registered (REP002).
KERNEL_MODULE = "src/repro/exec/kernels.py"
#: Doc whose marked list names the hot-path modules (REP007).
PERFORMANCE_DOC = "docs/PERFORMANCE.md"

FUNCTION_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)
_SCOPE_NODES = (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


@dataclass(frozen=True, slots=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


def module_path_for(path: Path) -> str:
    """The in-repo module path: ``.../src/repro/core/engine.py`` ->
    ``repro/core/engine.py`` (fall back to the file name)."""
    parts = path.as_posix().split("/")
    for anchor in ("repro", "tests", "benchmarks", "examples"):
        if anchor in parts:
            return "/".join(parts[parts.index(anchor) :])
    return path.name


class LintModule:
    """One parsed source file plus the index every rule iterates."""

    __slots__ = (
        "path",
        "modpath",
        "tree",
        "suppressions",
        "parents",
        "by_type",
        "scope_nodes",
        "aliases",
    )

    def __init__(self, source: str, *, path: str, modpath: str | None = None) -> None:
        self.path = path
        self.modpath = modpath if modpath is not None else module_path_for(Path(path))
        self.tree = ast.parse(source, filename=path)
        self.suppressions = _parse_suppressions(source)
        #: child -> parent, for the whole tree.
        self.parents: dict[ast.AST, ast.AST] = {}
        #: node type -> nodes, in ``ast.walk`` (breadth-first) order.
        self.by_type: dict[type, list[ast.AST]] = {}
        #: scope (module, def or class) -> the nodes it owns: everything
        #: below it down to, and including, nested def/class nodes.
        self.scope_nodes: dict[ast.AST, list[ast.AST]] = {}
        #: Bound name -> canonical dotted path, from the module's imports.
        self.aliases: dict[str, str] = {}
        self._index()

    def _index(self) -> None:
        parents, by_type, aliases = self.parents, self.by_type, self.aliases
        queue: deque[tuple[ast.AST, list[ast.AST] | None]] = deque([(self.tree, None)])
        while queue:
            node, owned = queue.popleft()
            by_type.setdefault(type(node), []).append(node)
            if owned is not None:
                owned.append(node)
            if isinstance(node, _SCOPE_NODES):
                owned = self.scope_nodes[node] = []
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        aliases[alias.asname] = alias.name
                    else:
                        root = alias.name.partition(".")[0]
                        aliases.setdefault(root, root)
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                for alias in node.names:
                    aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"
            for child in ast.iter_child_nodes(node):
                parents[child] = node
                queue.append((child, owned))

    # -- index views --------------------------------------------------------

    def nodes(self, *types: type) -> Iterator[ast.AST]:
        """Every node of the given exact types."""
        for t in types:
            yield from self.by_type.get(t, ())

    def subtree(self, root: ast.AST) -> Iterator[ast.AST]:
        """A scope node (module, def or class) and everything below it,
        nested scopes included."""
        stack = [root]
        while stack:
            node = stack.pop()
            yield node
            owned = self.scope_nodes.get(node)
            if owned is None:
                continue
            for sub in owned:
                if sub in self.scope_nodes:
                    stack.append(sub)
                else:
                    yield sub

    def dotted(self, node: ast.AST) -> str | None:
        """Canonical dotted path of a Name/Attribute chain, alias-resolved."""
        return dotted_name(node, self.aliases)

    # -- findings -----------------------------------------------------------

    def finding(self, rule: str, node: ast.AST, message: str) -> Finding:
        return Finding(
            rule,
            self.path,
            getattr(node, "lineno", 1),
            getattr(node, "col_offset", 0) + 1,
            message,
        )

    def suppressed(self, finding: Finding) -> bool:
        rules = self.suppressions.get(finding.line)
        return bool(rules) and finding.rule in rules


def _parse_suppressions(source: str) -> dict[int, frozenset[str]]:
    out: dict[int, frozenset[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        m = _SUPPRESS_RE.search(line)
        if m:
            out[lineno] = frozenset(r.strip() for r in m.group("rules").split(","))
    return out


# -- AST helpers shared by the rule layers ------------------------------------


def dotted_name(node: ast.AST, aliases: dict[str, str] | None = None) -> str | None:
    """``np.random.default_rng`` -> ``numpy.random.default_rng`` (or None
    when the chain is not a plain Name/Attribute path)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    root = node.id
    if aliases:
        root = aliases.get(root, root)
    parts.append(root)
    return ".".join(reversed(parts))


def terminal_name(func: ast.AST) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def attr_root(node: ast.AST) -> ast.AST:
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node


def local_bindings(module: LintModule, fn: ast.AST) -> set[str]:
    """Every name a def binds: its parameters, plus every store, import
    and def/class name anywhere below it (its own name included)."""
    a = fn.args
    params = (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg)
    names = {p.arg for p in params if p is not None}
    for node in module.subtree(fn):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names.add(alias.asname or alias.name.partition(".")[0])
        elif isinstance(node, (*FUNCTION_DEFS, ast.ClassDef)):
            names.add(node.name)
    return names


def registered_kernels(tree: ast.Module) -> list[str]:
    """Function names passed to module-level ``register_kernel(...)``."""
    out = []
    for node in tree.body:
        if (
            isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Call)
            and isinstance(node.value.func, ast.Name)
            and node.value.func.id == "register_kernel"
            and len(node.value.args) >= 2
            and isinstance(node.value.args[1], ast.Name)
        ):
            out.append(node.value.args[1].id)
    return out


class Rule:
    """Base class: one checker with a stable id."""

    id = "REP000"
    title = ""

    def check(self, module: LintModule, ctx: "LintContext") -> Iterator[Finding]:
        raise NotImplementedError


# -- run-wide registries ------------------------------------------------------


class LintContext:
    """Registries shared by every rule in one run, read statically."""

    __slots__ = ("config", "_hot_modules")

    def __init__(self, config: LintConfig | None = None) -> None:
        self.config = config or LintConfig()
        self._hot_modules: tuple[str, ...] | None = None

    # -- REP007: hot-path module list --------------------------------------

    @property
    def hot_path_modules(self) -> tuple[str, ...]:
        """Module paths required to use ``__slots__``, read from the marked
        list in ``docs/PERFORMANCE.md`` (the doc is the source of truth;
        without it the list is empty and REP007 checks nothing)."""
        if self.config.hot_path_modules_override is not None:
            return self.config.hot_path_modules_override
        if self._hot_modules is None:
            try:
                doc = (self.config.root / PERFORMANCE_DOC).read_text()
            except OSError:
                doc = ""
            m = re.search(
                r"<!--\s*reprolint:\s*hot-path-modules\s*-->(.*?)<!--\s*/reprolint\s*-->",
                doc,
                re.S,
            )
            body = m.group(1) if m else ""
            self._hot_modules = tuple(
                module_path_for(Path(p)) for p in re.findall(r"`([^`]+\.py)`", body)
            )
        return self._hot_modules

    # -- REP002: the kernel module -------------------------------------------

    @property
    def kernel_modpath(self) -> str:
        return module_path_for(Path(KERNEL_MODULE))


# -- runner -------------------------------------------------------------------


def _active_rules(config: LintConfig) -> list[Rule]:
    from repro.lint.rules import ALL_RULES

    if not config.select:
        return list(ALL_RULES)
    return [r for r in ALL_RULES if r.id in config.select]


def lint_module(
    module: LintModule,
    ctx: LintContext,
    timings: dict[str, float] | None = None,
) -> list[Finding]:
    findings: list[Finding] = []
    for rule in _active_rules(ctx.config):
        started = time.perf_counter() if timings is not None else 0.0
        findings.extend(f for f in rule.check(module, ctx) if not module.suppressed(f))
        if timings is not None:
            timings[rule.id] = (
                timings.get(rule.id, 0.0) + time.perf_counter() - started
            )
    return findings


def lint_source(
    source: str,
    *,
    path: str = "<string>",
    modpath: str | None = None,
    config: LintConfig | None = None,
    context: LintContext | None = None,
) -> list[Finding]:
    """Lint one source string (the fixture-test entry point)."""
    ctx = context or LintContext(config)
    return lint_module(LintModule(source, path=path, modpath=modpath), ctx)


def iter_py_files(paths: Iterable[Path]) -> Iterator[Path]:
    for path in paths:
        if path.is_dir():
            yield from sorted(
                p
                for p in path.rglob("*.py")
                if "__pycache__" not in p.parts and ".egg-info" not in p.as_posix()
            )
        elif path.suffix == ".py":
            yield path


def lint_paths(
    paths: Iterable[Path | str],
    config: LintConfig | None = None,
    *,
    timings: dict[str, float] | None = None,
) -> list[Finding]:
    """Lint files/directories; findings sorted by (path, line, rule).

    Every file is parsed, indexed and linted once.  When ``timings`` is
    a dict, per-rule wall-time accumulates into it (rule id -> seconds
    across all linted files).
    """
    ctx = LintContext(config)
    findings: list[Finding] = []
    for path in iter_py_files(Path(p) for p in paths):
        shown = _display_path(path, ctx)
        try:
            module = LintModule(path.read_text(), path=shown)
        except SyntaxError as exc:
            findings.append(
                Finding("REP000", shown, exc.lineno or 1, 1, f"syntax error: {exc.msg}")
            )
            continue
        findings.extend(lint_module(module, ctx, timings))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def _display_path(path: Path, ctx: LintContext) -> str:
    try:
        return path.resolve().relative_to(ctx.config.root).as_posix()
    except ValueError:
        return path.as_posix()
