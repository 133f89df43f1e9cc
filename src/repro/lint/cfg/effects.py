"""Per-block effect classification for the protocol rules.

``journal_appends`` finds ``journal.append(K_REDUCE_COMMIT, ...)``-style
calls and classifies the record kind; ``emit_sites`` finds committed-
output emissions (``hdfs.append_block(job.output_path, ...)``); both
feed REP204's commit-then-emit check.  ``releases`` is the per-block
release predicate REP205's must-analysis evaluates: close, ``with``,
and the ownership transfers (return/yield, store, hand-off);
``is_resource_factory`` names the calls it treats as acquisitions.  The
resource lattice maps fork-unsafe factory calls to the human-readable
kind REP202 reports.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator

from repro.lint.cfg.builder import Block, block_exprs
from repro.lint.core import receiver_named

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lint.core import LintModule

__all__ = [
    "EMIT_METHODS",
    "RESOURCE_KINDS",
    "emit_sites",
    "is_resource_factory",
    "journal_appends",
    "releases",
    "resource_kind",
]

#: Journal record kinds that commit reduce output; emission of committed
#: output must be preceded by one of these (K_OUTPUT_COMMIT legitimately
#: *follows* emission — it seals the whole output file).
_REDUCE_COMMIT_NAMES = frozenset({"K_REDUCE_COMMIT"})
_REDUCE_COMMIT_VALUES = frozenset({"reduce-commit"})

#: Receiver names treated as the job journal by REP204 (plus any
#: ``<expr>.journal`` attribute).
JOURNAL_RECEIVERS = ("journal",)

#: Output-emission vocabulary for REP204: methods that append committed
#: output, and the job attributes naming the output target.
EMIT_METHODS = ("append_block",)
EMIT_PATH_ATTRS = ("output_path",)

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


#: Calls that acquire a resource REP205 wants closed on every path; bare
#: names match any terminal segment, dotted names match exactly.
RESOURCE_FACTORIES = ("open", "repro.io.runio.RunWriter")


def is_resource_factory(dotted: str) -> bool:
    terminal = dotted.rpartition(".")[2]
    return any(
        f == dotted or ("." not in f and f == terminal) for f in RESOURCE_FACTORIES
    )


# -- REP204: journal commits and output emissions -----------------------------


def _append_kind(call: ast.Call, module: "LintModule") -> str | None:
    """"reduce-commit", "output-commit" or "other" for a journal append."""
    if not call.args:
        return "other"
    arg = call.args[0]
    if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
        if arg.value in _REDUCE_COMMIT_VALUES:
            return "reduce-commit"
        return "output-commit" if arg.value == "output-commit" else "other"
    dotted = module.dotted(arg)
    if dotted is None:
        return "other"
    terminal = dotted.rpartition(".")[2]
    if terminal in _REDUCE_COMMIT_NAMES:
        return "reduce-commit"
    return "output-commit" if terminal == "K_OUTPUT_COMMIT" else "other"


def journal_appends(
    block: Block, module: "LintModule"
) -> Iterator[tuple[str, ast.Call]]:
    """(kind, call) for every journal ``append`` call in the block."""
    for node in block_exprs(block):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "append"
            and receiver_named(node.func.value, JOURNAL_RECEIVERS)
        ):
            kind = _append_kind(node, module)
            if kind is not None:
                yield kind, node


def emit_sites(block: Block) -> Iterator[ast.Call]:
    """Committed-output emissions: an ``append_block``-style call whose
    arguments reference the job's ``output_path``."""
    for node in block_exprs(block):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in EMIT_METHODS
        ):
            continue
        args = (*node.args, *(kw.value for kw in node.keywords))
        for arg in args:
            if any(
                isinstance(sub, ast.Attribute) and sub.attr in EMIT_PATH_ATTRS
                for sub in ast.walk(arg)
            ):
                yield node
                break


# -- REP205: the per-block release predicate ----------------------------------


def releases(block: Block, name: str) -> bool:
    """Does this block release/transfer ownership of local ``name``?

    ``name.close()``, a ``with`` managing it, or an ownership transfer:
    returning/yielding it, storing it into longer-lived state, or
    passing it to another callable.
    """
    node = block.node
    if node is None:
        return False
    if isinstance(node, (ast.With, ast.AsyncWith)):
        for item in node.items:
            expr = item.context_expr
            if isinstance(expr, ast.Name) and expr.id == name:
                return True
            if isinstance(expr, ast.Call) and any(
                isinstance(a, ast.Name) and a.id == name for a in expr.args
            ):
                return True  # contextlib.closing(name) and friends
        return False
    for sub in block_exprs(block):
        if isinstance(sub, (ast.Return, ast.Yield, ast.YieldFrom)):
            value = sub.value
            if value is not None and any(
                isinstance(n, ast.Name) and n.id == name for n in ast.walk(value)
            ):
                return True
        elif isinstance(sub, ast.Call):
            func = sub.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr == "close"
                and isinstance(func.value, ast.Name)
                and func.value.id == name
            ):
                return True
            if any(
                isinstance(a, ast.Name) and a.id == name
                for a in (*sub.args, *(kw.value for kw in sub.keywords))
            ):
                return True  # handed to another owner
        elif isinstance(sub, ast.Assign):
            if any(
                isinstance(t, (ast.Attribute, ast.Subscript)) for t in sub.targets
            ) and any(
                isinstance(n, ast.Name) and n.id == name
                for n in ast.walk(sub.value)
            ):
                return True  # stored into longer-lived state
    return False
