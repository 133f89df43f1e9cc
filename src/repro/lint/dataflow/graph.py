"""The project call graph: scanning and linking summaries.

:func:`build_program` walks the program scope (all of ``src/repro/``),
summarises every module and returns a :class:`Program` whose
:class:`~repro.lint.dataflow.taint.ProgramFacts` the whole-program rules
query.  Modules the lint run has already parsed are summarised from that
parse, so no file is parsed twice.

Programs are memoised in-process per root: ``tests/lint`` lints hundreds
of fixture snippets against the real program and builds it exactly once.
"""

from __future__ import annotations

from pathlib import Path

from repro.lint.core import LintModule, iter_py_files, module_path_for
from repro.lint.dataflow.summary import ModuleSummary, summarize_module
from repro.lint.dataflow.taint import ProgramFacts

__all__ = ["PROGRAM_SCOPE", "Program", "build_program", "clear_program_memo"]

#: Paths (relative to the root) whose modules form the whole-program
#: call graph the interprocedural rules resolve against.
PROGRAM_SCOPE = ("src/repro",)

_PROGRAM_MEMO: dict[Path, "Program"] = {}


def dotted_module(modpath: str) -> str:
    """``repro/exec/base.py`` -> ``repro.exec.base``."""
    stem = modpath[:-3] if modpath.endswith(".py") else modpath
    dotted = stem.replace("/", ".")
    return dotted[: -len(".__init__")] if dotted.endswith(".__init__") else dotted


class Program:
    """Every module summary in the program scope, plus resolved facts."""

    __slots__ = ("modules", "digests", "_functions", "_facts", "_targets", "_ext_memo")

    def __init__(
        self, modules: dict[str, ModuleSummary], digests: dict[str, str]
    ) -> None:
        self.modules = modules
        self.digests = digests
        self._functions: dict | None = None
        self._facts: ProgramFacts | None = None
        self._targets: frozenset[str] | None = None
        self._ext_memo: dict[tuple[str, str], ProgramFacts] = {}

    @property
    def functions(self) -> dict:
        if self._functions is None:
            self._functions = {
                f"{modpath}::{qual}": fn
                for modpath, summary in self.modules.items()
                for qual, fn in summary.functions.items()
            }
        return self._functions

    @property
    def facts(self) -> ProgramFacts:
        if self._facts is None:
            self._facts = ProgramFacts(self.functions)
        return self._facts

    def _calls_into(self, modpath: str) -> bool:
        """Does any program function name a target inside ``modpath``?"""
        if self._targets is None:
            self._targets = frozenset(
                call[0] for fn in self.functions.values() for call in fn.calls
            )
        stem = dotted_module(modpath) + "."
        return any(target.startswith(stem) for target in self._targets)

    def facts_for(self, summary: ModuleSummary, digest: str) -> ProgramFacts:
        """Facts with ``summary`` spliced in for its module path.

        A module in the program's own packages (a fixture, a seeded
        edit) replaces or extends the program's functions and the
        fixpoint reruns.  A module outside them that no program function
        calls into (``benchmarks/``, ``examples/``) cannot change any
        program function's facts, so it is layered on the shared facts
        and only its own functions propagate.
        """
        key = (summary.modpath, digest)
        cached = self._ext_memo.get(key)
        if cached is not None:
            return cached
        prefix = f"{summary.modpath}::"
        spliced = {f"{prefix}{qual}": fn for qual, fn in summary.functions.items()}
        package = summary.modpath.partition("/")[0]
        if all(
            not mp.startswith(package + "/") for mp in self.modules
        ) and not self._calls_into(summary.modpath):
            facts = ProgramFacts(spliced, base=self.facts)
        else:
            combined = {
                fid: fn
                for fid, fn in self.functions.items()
                if not fid.startswith(prefix)
            }
            combined.update(spliced)
            facts = ProgramFacts(combined)
        self._ext_memo[key] = facts
        return facts


def clear_program_memo() -> None:
    _PROGRAM_MEMO.clear()


def build_program(config, parsed: dict[Path, LintModule] | None = None) -> Program:
    """Build (or fetch) the whole-program view for one lint config.

    ``parsed`` maps resolved paths to modules the caller has already
    parsed; they are summarised as they are instead of being re-read.
    """
    modules: dict[str, ModuleSummary] = {}
    digests: dict[str, str] = {}

    def add(module: LintModule) -> None:
        if module.summary is None:
            module.summary = summarize_module(module)
        modules[module.modpath] = module.summary
        digests[module.modpath] = module.digest

    if config.program_modules_override is not None:
        for modpath, source in sorted(config.program_modules_override.items()):
            add(LintModule(source, path=modpath, modpath=modpath))
        return Program(modules, digests)

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
    program = _PROGRAM_MEMO[root] = Program(modules, digests)
    return program
