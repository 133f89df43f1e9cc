"""Nondeterminism sentinels: scoped patching of wall-clock/entropy APIs.

The static REP101 rule proves *source text* never calls
``time.time()`` or the unseeded global RNG on an engine path; the
sentinel detector witnesses the same contract at runtime by replacing
the exact call targets from the shared lint vocabulary
(:mod:`repro.lint.dataflow.sources`) with passthrough wrappers that
report a trip — but only while engine scope is active, so test scaffolds
and the CLI remain free to read the clock.

Trips are *reported, not blocked*: the wrapper records the violation
and then calls the real function, so a sanitized run still completes
and its output can be byte-compared against the unsanitized run.

Known limitation (documented in docs/SANITIZERS.md): ``datetime``
attributes live on a C type and cannot be patched; the static layer
remains the only guard for ``datetime.datetime.now`` and friends.
"""

from __future__ import annotations

import ast
import functools
import importlib
from typing import Callable

from repro.lint.dataflow.sources import NONDETERMINISTIC_CALLS, nondet_call

__all__ = ["SentinelPatches", "SentinelTrip", "sentinel_targets"]

# nondet_call only inspects the node for the default_rng arg check;
# a dummy empty call node satisfies it for plain dotted lookups.
_DUMMY_CALL = ast.parse("f()", mode="eval").body

#: Module-global functions on ``random`` that hit the unseeded global
#: RNG.  random.Random(seed) instances are untouched (REP101's carve-out).
_GLOBAL_RNG_FUNCS = (
    "random.random",
    "random.randint",
    "random.randrange",
    "random.choice",
    "random.shuffle",
    "random.sample",
    "random.uniform",
    "random.gauss",
)


class SentinelTrip(Exception):
    """Raised across the fork boundary when a kernel trips a sentinel.

    In-process trips are recorded via the trip sink and never raised;
    a fork child has no sink, so the wrapped kernel converts the trip
    into this (picklable) exception and the parent records it.
    """

    def __init__(self, dotted: str, message: str) -> None:
        super().__init__(dotted, message)
        self.dotted = dotted
        self.message = message


def _message_for(dotted: str) -> str:
    return nondet_call(dotted, _DUMMY_CALL) or f"nondeterministic call {dotted}()"


def sentinel_targets() -> list[tuple[str, str, str]]:
    """(module, attribute, dotted) triples the sentinels patch.

    Derived from the lint vocabulary so the static and dynamic layers
    can never drift: every patchable NONDETERMINISTIC_CALLS entry plus
    the global-RNG functions.  ``datetime.*`` entries are skipped (C
    type, unpatchable).
    """
    targets = []
    for dotted in sorted(NONDETERMINISTIC_CALLS) + list(_GLOBAL_RNG_FUNCS):
        module, _, attr = dotted.rpartition(".")
        if "." in module:  # datetime.datetime.now etc: class attr on a C type
            continue
        targets.append((module, attr, dotted))
    return targets


class SentinelPatches:
    """Install/remove the sentinel wrappers around the real functions."""

    def __init__(self, on_trip: Callable[[str, str], None]) -> None:
        self._on_trip = on_trip
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        assert not self._saved, "sentinels already installed"
        for module_name, attr, dotted in sentinel_targets():
            try:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
            except (ImportError, AttributeError):
                continue
            wrapper = self._wrap(original, dotted)
            setattr(module, attr, wrapper)
            self._saved.append((module, attr, original))

    def remove(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved = []

    def _wrap(self, original, dotted: str):
        on_trip = self._on_trip
        message = _message_for(dotted)

        @functools.wraps(original)
        def sentinel(*args, **kwargs):
            on_trip(dotted, message)
            return original(*args, **kwargs)

        sentinel.__reprosan_sentinel__ = dotted  # type: ignore[attr-defined]
        return sentinel
