"""The project call graph: scanning and linking summaries.

:func:`build_program` walks the program scope (all of ``src/repro/``),
summarises every module and returns a :class:`Program`: the function
index plus the resolver that turns a summary's symbolic call target into
a function id.  REP201's execution-context closure is the one consumer.
Modules the lint run has already parsed are summarised from that parse,
so no file is parsed twice.

Programs are memoised in-process per root: ``tests/lint`` lints hundreds
of fixture snippets against the real program and builds it exactly once.
"""

from __future__ import annotations

from pathlib import Path

from repro.lint.core import LintModule, iter_py_files, module_path_for
from repro.lint.dataflow.summary import FunctionSummary, ModuleSummary, summarize_module

__all__ = ["PROGRAM_SCOPE", "Program", "build_program", "clear_program_memo", "fid_display"]

#: Paths (relative to the root) whose modules form the whole-program
#: call graph REP201 resolves against.
PROGRAM_SCOPE = ("src/repro",)

_PROGRAM_MEMO: dict[Path, "Program"] = {}


def dotted_module(modpath: str) -> str:
    """``repro/exec/base.py`` -> ``repro.exec.base``."""
    stem = modpath[:-3] if modpath.endswith(".py") else modpath
    dotted = stem.replace("/", ".")
    return dotted[: -len(".__init__")] if dotted.endswith(".__init__") else dotted


def fid_display(fid: str) -> str:
    modpath, _, qual = fid.partition("::")
    return f"{qual} ({modpath})"


class Program:
    """Every module summary in the program scope, linked by function id
    (``<modpath>::<qualname>``)."""

    __slots__ = ("modules", "functions", "_targets")

    def __init__(self, modules: dict[str, ModuleSummary]) -> None:
        self.modules = modules
        self.functions: dict[str, FunctionSummary] = {
            f"{modpath}::{qual}": fn
            for modpath, summary in modules.items()
            for qual, fn in summary.functions.items()
        }
        self._targets: frozenset[str] | None = None

    def resolve(self, modpath: str, dotted: str, cls: str | None = None) -> str | None:
        """Function id for a summary's symbolic call target, or None."""
        if dotted.startswith("self."):
            if cls is None:
                return None
            fid = f"{modpath}::{cls}.{dotted[5:]}"
            return fid if fid in self.functions else None
        if "." not in dotted:
            fid = f"{modpath}::{dotted}"
            return fid if fid in self.functions else None
        parts = dotted.split(".")
        for i in range(len(parts) - 1, 0, -1):
            stem = "/".join(parts[:i])
            remainder = ".".join(parts[i:])
            for mp in (f"{stem}.py", f"{stem}/__init__.py"):
                if mp not in self.modules:
                    continue
                for qual in (remainder, f"{remainder}.__init__"):
                    fid = f"{mp}::{qual}"
                    if fid in self.functions:
                        return fid
                return None  # right module, unknown function: stop here
        return None

    def _calls_into(self, modpath: str) -> bool:
        """Does any program function name a target inside ``modpath``?"""
        if self._targets is None:
            self._targets = frozenset(
                call[0] for fn in self.functions.values() for call in fn.calls
            )
        stem = dotted_module(modpath) + "."
        return any(target.startswith(stem) for target in self._targets)

    def spliced(self, summary: ModuleSummary) -> "Program":
        """The program with ``summary`` in place of its module's.

        A module in the program's own packages (a fixture, a seeded
        edit) replaces or extends the program's functions.  A module
        outside them that no program function calls into
        (``benchmarks/``, ``examples/``) is reached by nothing in the
        program and seeds neither execution context, so the program
        itself — and every closure already built over it — still holds.
        """
        package = summary.modpath.partition("/")[0]
        if all(
            not mp.startswith(package + "/") for mp in self.modules
        ) and not self._calls_into(summary.modpath):
            return self
        return Program({**self.modules, summary.modpath: summary})


def clear_program_memo() -> None:
    _PROGRAM_MEMO.clear()


def build_program(config, parsed: dict[Path, LintModule] | None = None) -> Program:
    """Build (or fetch) the whole-program view for one lint config.

    ``parsed`` maps resolved paths to modules the caller has already
    parsed; they are summarised as they are instead of being re-read.
    """
    modules: dict[str, ModuleSummary] = {}

    def add(module: LintModule) -> None:
        if module.summary is None:
            module.summary = summarize_module(module)
        modules[module.modpath] = module.summary

    if config.program_modules_override is not None:
        for modpath, source in sorted(config.program_modules_override.items()):
            add(LintModule(source, path=modpath, modpath=modpath))
        return Program(modules)

    root = Path(config.root).resolve()
    if root in _PROGRAM_MEMO:
        return _PROGRAM_MEMO[root]
    for path in iter_py_files(root / scope for scope in PROGRAM_SCOPE):
        module = (parsed or {}).get(path)
        if module is None:
            try:
                module = LintModule(
                    path.read_text(), path=str(path), modpath=module_path_for(path)
                )
            except (OSError, SyntaxError, UnicodeDecodeError):
                continue
        add(module)
    program = _PROGRAM_MEMO[root] = Program(modules)
    return program
