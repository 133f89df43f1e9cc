"""The nondeterminism vocabulary: what REP101 calls a source."""

from __future__ import annotations

import ast

__all__ = ["nondet_call", "nondet_reference"]

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


def nondet_reference(dotted: str) -> str | None:
    """The REP101 finding text when a source is taken as a value — bound,
    passed or used as a default — to be called later, out of sight;
    ``None`` for anything else (types and the seedable ``default_rng``
    included)."""
    if dotted.endswith(".default_rng") or dotted.rpartition(".")[2][:1].isupper():
        return None
    # Only the default_rng check reads the call's arguments, and it is out above.
    if nondet_call(dotted, ast.Call(args=[], keywords=[])) is None:
        return None
    return f"nondeterministic callable {dotted} taken as a value; it is called out of sight"
