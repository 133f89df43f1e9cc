"""Lint driver: module model, suppression comments, registries, runner.

A :class:`LintModule` wraps one parsed source file with the facts every
rule needs, built by *one* traversal: nodes by type, parent links,
per-scope node lists and import aliases.  Rules iterate that index and
never walk the tree themselves.  A :class:`LintContext` carries the
run-wide registries — declared counter names, registered span/event
names, the hot-path module list — parsed *statically* from their source
files so linting never imports repository code.
"""

from __future__ import annotations

import ast
import hashlib
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

#: ``# reprolint: disable=REP101,REP006 -- why this is fine``
_SUPPRESS_RE = re.compile(
    r"#\s*reprolint:\s*disable=(?P<rules>REP\d{3}(?:\s*,\s*REP\d{3})*)"
    r"(?:\s*--\s*(?P<reason>.*))?"
)

#: Where kernels and the picklable ``*Spec`` classes are registered.
KERNEL_MODULE = "src/repro/exec/kernels.py"
#: Where the Executor protocol lives; ``pool.submit(fn, ...)`` sites
#: here mark ``fn`` as a worker entry point.
EXECUTOR_MODULE = "src/repro/exec/base.py"
#: Counter registry (``class C``).
COUNTERS_MODULE = "src/repro/mapreduce/counters.py"
#: Span/event name registry (SPAN_NAMES, EVENT_NAMES).
NAMES_MODULE = "src/repro/obs/names.py"
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
        "source",
        "digest",
        "tree",
        "suppressions",
        "parents",
        "by_type",
        "scope_nodes",
        "aliases",
        "summary",
    )

    def __init__(self, source: str, *, path: str, modpath: str | None = None) -> None:
        self.path = path
        self.modpath = modpath if modpath is not None else module_path_for(Path(path))
        self.source = source
        self.digest = hashlib.sha256(source.encode("utf-8")).hexdigest()
        self.tree = ast.parse(source, filename=path)
        self.suppressions = _parse_suppressions(source)
        #: Filled by ``LintContext.module_summary`` (at most once).
        self.summary = None
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

    @property
    def functions(self) -> list[ast.AST]:
        """Every def in the module, at any nesting depth."""
        return list(self.nodes(*FUNCTION_DEFS))

    @property
    def scopes(self) -> list[ast.AST]:
        """The module body and every function body (class bodies apart)."""
        return [self.tree, *self.functions]

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

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        parents = self.parents
        while node in parents:
            node = parents[node]
            yield node

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


def is_set_expr(node: ast.AST) -> bool:
    return isinstance(node, (ast.Set, ast.SetComp)) or (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    )


def receiver_named(node: ast.AST, names: tuple[str, ...]) -> bool:
    """``tracer`` / ``self.tracer`` style receivers: a bare name or the
    last attribute segment is one of ``names``."""
    return terminal_name(node) in names


def module_level_names(tree: ast.Module) -> set[str]:
    """Names assigned at module level (imports not included)."""
    names: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


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
    """Registries shared by every rule in one run, parsed statically."""

    __slots__ = (
        "config",
        "parsed",
        "_counters",
        "_names",
        "_hot_modules",
        "_sources",
        "_spec_names",
        "_program",
        "_contexts",
    )

    def __init__(self, config: LintConfig | None = None) -> None:
        self.config = config or LintConfig()
        #: resolved path -> module already parsed by this run, so the
        #: program build reuses it instead of parsing the file again.
        self.parsed: dict[Path, LintModule] = {}
        self._counters: tuple[frozenset[str], list[str]] | None = None
        self._names: dict[str, frozenset[str]] | None = None
        self._hot_modules: tuple[str, ...] | None = None
        self._sources: dict[str, str] = {}
        self._spec_names: frozenset[str] | None = None
        self._program = None
        self._contexts = None

    def _read(self, relpath: str) -> str:
        """Registry source, or "" when absent (rules then deactivate)."""
        if relpath not in self._sources:
            try:
                self._sources[relpath] = (self.config.root / relpath).read_text()
            except OSError:
                self._sources[relpath] = ""
        return self._sources[relpath]

    # -- REP004: counter registry ------------------------------------------

    def _load_counters(self) -> tuple[frozenset[str], list[str]]:
        if self._counters is None:
            names: list[str] = []
            values: list[str] = []
            for node in ast.parse(self._read(COUNTERS_MODULE)).body:
                if isinstance(node, ast.ClassDef) and node.name == "C":
                    for stmt in node.body:
                        if isinstance(stmt, ast.Assign) and isinstance(
                            stmt.targets[0], ast.Name
                        ):
                            names.append(stmt.targets[0].id)
                            if isinstance(stmt.value, ast.Constant):
                                values.append(str(stmt.value.value))
            self._counters = (
                frozenset(n for n in names if not n.startswith("__")),
                values,
            )
        return self._counters

    @property
    def counter_names(self) -> frozenset[str]:
        if self.config.counter_names_override is not None:
            return self.config.counter_names_override
        return self._load_counters()[0]

    @property
    def counter_values(self) -> list[str]:
        """Declared counter string values (for uniqueness checks)."""
        return self._load_counters()[1]

    # -- REP104: span/event name registries ---------------------------------

    def registry_names(self, kind: str) -> frozenset[str]:
        """The registered names of one kind: "span" or "event"."""
        override = getattr(self.config, f"{kind}_names_override")
        if override is not None:
            return override
        if self._names is None:
            self._names = {}
            for node in ast.parse(self._read(NAMES_MODULE)).body:
                if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
                    self._names[node.targets[0].id] = frozenset(
                        n.value
                        for n in ast.walk(node.value)
                        if isinstance(n, ast.Constant) and isinstance(n.value, str)
                    )
        return self._names.get(f"{kind.upper()}_NAMES", frozenset())

    # -- REP007: hot-path module list --------------------------------------

    @property
    def hot_path_modules(self) -> tuple[str, ...]:
        """Module paths required to use ``__slots__``, read from the marked
        list in ``docs/PERFORMANCE.md`` (the doc is the source of truth)."""
        if self.config.hot_path_modules_override is not None:
            return self.config.hot_path_modules_override
        if self._hot_modules is None:
            m = re.search(
                r"<!--\s*reprolint:\s*hot-path-modules\s*-->(.*?)<!--\s*/reprolint\s*-->",
                self._read(PERFORMANCE_DOC),
                re.S,
            )
            body = m.group(1) if m else ""
            self._hot_modules = tuple(
                module_path_for(Path(p)) for p in re.findall(r"`([^`]+\.py)`", body)
            )
        return self._hot_modules

    # -- kernel and executor modules ---------------------------------------

    @property
    def kernel_source(self) -> str:
        if self.config.kernel_source_override is not None:
            return self.config.kernel_source_override
        return self._read(KERNEL_MODULE)

    @property
    def kernel_modpath(self) -> str:
        return module_path_for(Path(KERNEL_MODULE))

    @property
    def executor_source(self) -> str:
        if self.config.executor_source_override is not None:
            return self.config.executor_source_override
        return self._read(EXECUTOR_MODULE)

    @property
    def spec_class_names(self) -> frozenset[str]:
        """Picklable task-spec classes defined in the kernel module."""
        if self._spec_names is None:
            self._spec_names = frozenset(
                n.name
                for n in ast.walk(ast.parse(self.kernel_source))
                if isinstance(n, ast.ClassDef) and n.name.endswith("Spec")
            )
        return self._spec_names

    # -- whole-program call graph -------------------------------------------

    @property
    def program(self):
        """The whole-program call-graph view (built lazily once per run)."""
        if self._program is None:
            from repro.lint.dataflow.graph import build_program

            self._program = build_program(self.config, self.parsed)
        return self._program

    def module_summary(self, module: LintModule):
        """The module's summary: the program's own when the source
        matches the program's copy, else summarised here, once."""
        if module.summary is None:
            from repro.lint.dataflow.summary import summarize_module

            shared = self.program.modules.get(module.modpath)
            if shared is not None and shared.digest == module.digest:
                module.summary = shared
            else:
                module.summary = summarize_module(module)
        return module.summary

    # -- execution contexts ---------------------------------------------------

    def exec_contexts(self, module: LintModule):
        """Coordinator/kernel classification of the program with
        ``module``'s current source spliced in.

        When the module shares the program's summary, or cannot change
        what the program reaches (``Program.spliced``), this is the one
        classification built per run; fixture sources and seeded edits
        get their own, with their functions visible to the closure.
        """
        program = self.program
        summary = self.module_summary(module)
        if summary is not program.modules.get(module.modpath):
            spliced = program.spliced(summary)
            if spliced is not program:
                return self._build_contexts(spliced)
        if self._contexts is None:
            self._contexts = self._build_contexts(program)
        return self._contexts

    def _build_contexts(self, program):
        from repro.lint.cfg.context import build_contexts

        try:
            executor_tree = ast.parse(self.executor_source)
        except SyntaxError:
            executor_tree = None
        return build_contexts(
            program,
            kernel_tree=ast.parse(self.kernel_source),
            kernel_modpath=self.kernel_modpath,
            executor_tree=executor_tree,
            executor_modpath=module_path_for(Path(EXECUTOR_MODULE)),
        )


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

    Every file is parsed and indexed once, up front, so the program
    build (triggered by the first whole-program rule) can share those
    modules; each is dropped as soon as its rules have run.  When
    ``timings`` is a dict, per-rule wall-time accumulates into it
    (rule id -> seconds across all linted files).
    """
    ctx = LintContext(config)
    findings: list[Finding] = []
    for path in iter_py_files(Path(p) for p in paths):
        shown = _display_path(path, ctx)
        try:
            ctx.parsed[path.resolve()] = LintModule(path.read_text(), path=shown)
        except SyntaxError as exc:
            findings.append(
                Finding("REP000", shown, exc.lineno or 1, 1, f"syntax error: {exc.msg}")
            )
    for key in list(ctx.parsed):
        findings.extend(lint_module(ctx.parsed.pop(key), ctx, timings))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def _display_path(path: Path, ctx: LintContext) -> str:
    try:
        return path.resolve().relative_to(ctx.config.root).as_posix()
    except ValueError:
        return path.as_posix()
