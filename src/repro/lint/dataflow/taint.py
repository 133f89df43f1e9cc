"""The fixpoint propagator: whole-program facts over module summaries.

:class:`ProgramFacts` resolves every summary's symbolic call targets
against the project function index and iterates to a fixpoint on three
return-flow properties:

* ``nondet``   — the function's return value carries wall-clock,
  unseeded-RNG or hash-order taint (return-flow: a source that never
  escapes does not taint callers);
* ``unpicklable`` — the function returns a lambda/local def (or the
  result of a call that does);
* ``resource`` — the function returns a freshly acquired resource
  (file handle, run writer, tracer span), making its call sites
  acquisition sites.

Every entry carries a witness chain of function ids so findings can
print the path from the call site to the source.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.lint.dataflow.summary import FunctionSummary

__all__ = ["ProgramFacts", "chain_display", "fid_display"]

#: (detail, witness chain of fids, source lineno)
Entry = tuple[str, tuple[str, ...], int]

_MAX_CHAIN = 8


def fid_display(fid: str) -> str:
    modpath, _, qual = fid.partition("::")
    return f"{qual} ({modpath})"


def chain_display(fid: str, entry: Entry) -> str:
    return " -> ".join(fid_display(f) for f in (fid, *entry[1]))


class ProgramFacts:
    """Resolved, propagated facts over one set of function summaries."""

    __slots__ = (
        "functions",
        "base",
        "_modpaths",
        "nondet",
        "unpicklable",
        "resource",
    )

    def __init__(
        self,
        functions: Mapping[str, FunctionSummary],
        base: "ProgramFacts | None" = None,
    ) -> None:
        """Facts over ``functions``; with ``base``, over the base's
        functions too, whose facts are taken as settled — the caller
        guarantees no base function calls into the new ones — so only
        the new functions propagate."""
        self.base = base
        self.functions = {**base.functions, **functions} if base else dict(functions)
        self._modpaths = frozenset(
            fid.partition("::")[0] for fid in self.functions
        )
        self.nondet: dict[str, Entry] = dict(base.nondet) if base else {}
        self.unpicklable: dict[str, Entry] = dict(base.unpicklable) if base else {}
        self.resource: dict[str, Entry] = dict(base.resource) if base else {}
        self._propagate(sorted(functions))

    # -- resolution ----------------------------------------------------------

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
                if mp not in self._modpaths:
                    continue
                for qual in (remainder, f"{remainder}.__init__"):
                    fid = f"{mp}::{qual}"
                    if fid in self.functions:
                        return fid
                return None  # right module, unknown function: stop here
        return None

    def _resolve_for(self, summary: FunctionSummary, dotted: str) -> str | None:
        fid = self.resolve(summary.modpath, dotted, summary.cls)
        if fid == f"{summary.modpath}::{summary.name}":
            return None  # direct self-recursion adds nothing
        return fid

    # -- propagation ---------------------------------------------------------

    def _propagate(self, order: list[str]) -> None:
        # Seed the direct sources.
        for fid in order:
            s = self.functions[fid]
            for kind, detail, lineno in s.return_taints:
                table = {
                    "nondet": self.nondet,
                    "unpicklable": self.unpicklable,
                    "resource": self.resource,
                }.get(kind)
                if table is not None:
                    table.setdefault(fid, (detail, (), lineno))
        # Breadth-first sweeps: each sweep extends chains by one hop, so
        # witness chains come out minimal.
        changed = True
        while changed:
            changed = False
            for fid in order:
                s = self.functions[fid]
                for kind, detail, lineno in s.return_taints:
                    if kind != "call":
                        continue
                    target = self._resolve_for(s, detail)
                    if target is None:
                        continue
                    for table in (self.nondet, self.unpicklable, self.resource):
                        entry = table.get(target)
                        if entry is None or fid in table:
                            continue
                        if len(entry[1]) >= _MAX_CHAIN:
                            continue
                        table[fid] = (entry[0], (target, *entry[1]), lineno)
                        changed = True

    # -- queries -------------------------------------------------------------

    def spec_writes(
        self, fid: str
    ) -> Iterable[tuple[int, str, str, tuple[str, ...], int]]:
        """Resolved ``param.attr = value`` effects of one function.

        Yields ``(target param index, kind, detail, chain, lineno)`` with
        kind "param" (detail: source param index as str) or "unpicklable".
        """
        s = self.functions.get(fid)
        if s is None:
            return
        for tidx, kind, detail, lineno in s.param_attr_writes:
            if kind in ("param", "unpicklable"):
                yield tidx, kind, detail, (), lineno
            elif kind == "call":
                target = self._resolve_for(s, detail)
                entry = self.unpicklable.get(target) if target else None
                if entry is not None:
                    yield tidx, "unpicklable", entry[0], (target, *entry[1]), lineno

