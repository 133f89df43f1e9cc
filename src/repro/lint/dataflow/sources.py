"""The nondeterminism vocabulary: what REP101 calls a source, what
REP006 calls order-free, and which names are builtins (never a
call-graph edge).
"""

from __future__ import annotations

import ast
import builtins

__all__ = [
    "BUILTIN_NAMES",
    "ORDER_FREE_CALLS",
    "nondet_call",
]

#: Dotted call paths that read the wall clock or an OS entropy source.
NONDETERMINISTIC_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.localtime",
        "time.gmtime",
        "time.ctime",
        "time.strftime",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
        "os.urandom",
        "os.getrandom",
        "uuid.uuid1",
        "uuid.uuid4",
        "uuid.getnode",
    }
)

#: The one deterministic entry point on the stdlib ``random`` module.
SEEDED_RANDOM = frozenset({"random.Random"})

#: Wrapping calls for which element order cannot matter (``sorted``
#: canonicalises, the others reduce).
ORDER_FREE_CALLS = frozenset(
    {"sorted", "set", "frozenset", "sum", "min", "max", "len", "any", "all"}
)

#: Plain builtin names: calls to these are never project call-graph
#: edges, so summaries skip recording them as callees.
BUILTIN_NAMES = frozenset(dir(builtins))


def nondet_call(dotted: str, node: ast.Call) -> str | None:
    """The REP101 finding text when the call is a nondeterminism source,
    ``None`` when it is deterministic."""
    if dotted in NONDETERMINISTIC_CALLS:
        return f"nondeterministic call {dotted}()"
    if dotted.startswith("random.Random."):
        return None  # method on an explicitly seeded RNG instance
    if dotted.startswith("random.") and dotted not in SEEDED_RANDOM:
        return f"{dotted}() uses the global unseeded RNG; use random.Random(seed)"
    if dotted.startswith("secrets."):
        return f"{dotted}() draws OS entropy"
    if dotted.endswith(".random.default_rng") and not (node.args or node.keywords):
        return "default_rng() without a seed is nondeterministic"
    if dotted.startswith("numpy.random.") and not dotted.endswith(".default_rng"):
        return f"{dotted}() uses numpy's global RNG; use np.random.default_rng(seed)"
    return None
