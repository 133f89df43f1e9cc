"""Memory-accounted hash tables and a pairwise-independent hash family.

The paper's prototype ships a "hash function library [that] provides a set
of pair-wise independent hash functions" and key data structures with
explicit memory management.  In Python we keep the standard dict as the
backing store but track an explicit byte budget per table
(:class:`AccountedStateTable`), because every technique in
:mod:`repro.core` — hybrid hash, incremental hash, the hot-key cache — is
parameterised by "does the state fit in memory".

:class:`HashFamily` provides seeded, pairwise-independent multiply-shift
hashes used for bucket assignment in hybrid hash, so recursive partitioning
levels use *different* hash functions (a requirement of the algorithm: a
bucket hashed with the same function would not split further).
"""

from __future__ import annotations

from typing import Any, Callable, Iterator

from repro.core.aggregates import AggregateState, Aggregator
from repro.io.serialization import estimate_size
from repro.mapreduce.partition import stable_hash

__all__ = ["HashFamily", "AccountedStateTable"]

_MERSENNE_PRIME = (1 << 61) - 1
_SLOT_BYTES = 104  # dict slot overhead per entry, amortised


class HashFamily:
    """Seeded pairwise-independent hash functions ``h(x) = (a*x + b) mod p``.

    ``member(i)`` returns the i-th function of the family; distinct members
    are suitable for distinct recursion levels of hybrid hash.
    """

    __slots__ = ("seed",)

    def __init__(self, seed: int = 0x9E3779B9) -> None:
        self.seed = seed & 0xFFFFFFFF

    def member(self, index: int) -> Callable[[Any], int]:
        if index < 0:
            raise ValueError("index must be non-negative")
        # Derive (a, b) deterministically from the seed and index via
        # splitmix-style mixing; a must be non-zero mod p.
        a = _mix64(self.seed * 0x100000001B3 + index * 2 + 1)
        b = _mix64(self.seed ^ (index * 0x9E3779B97F4A7C15 + 0xBF58476D1CE4E5B9))
        a = (a % (_MERSENNE_PRIME - 1)) + 1
        b = b % _MERSENNE_PRIME

        def h(key: Any, _a: int = a, _b: int = b) -> int:
            x = stable_hash(key)
            return (_a * x + _b) % _MERSENNE_PRIME

        return h


def _mix64(x: int) -> int:
    """SplitMix64 finalizer: strong avalanche for seed derivation."""
    x &= 0xFFFFFFFFFFFFFFFF
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & 0xFFFFFFFFFFFFFFFF
    x = (x ^ (x >> 27)) * 0x94D049BB133111EB & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


class AccountedStateTable:
    """``key -> AggregateState`` with running byte accounting.

    ``update`` folds one value into the key's state, creating it on first
    touch.  Nothing is re-measured per fold: a new key is charged its
    estimate, a dict slot and its fresh state once, and every fold adds
    the growth the state itself reports (``AggregateState.update`` /
    ``merge`` return it).  So :attr:`used_bytes` is a plain field — a
    budget check is one attribute read — that always equals
    ``sum(estimate_size(key) + 104 + state.size_bytes())`` over the table.

    :attr:`states` is the backing dict, public so that hoisted loops can
    test residency without a call; only this class mutates it.
    """

    __slots__ = ("aggregator", "states", "used_bytes", "probes")

    def __init__(self, aggregator: Aggregator) -> None:
        self.aggregator = aggregator
        self.states: dict[Any, AggregateState] = {}
        self.used_bytes = 0
        self.probes = 0

    def __len__(self) -> int:
        return len(self.states)

    def update(self, key: Any, value: Any) -> AggregateState:
        """Fold ``value`` into ``key``'s state; returns the state."""
        self.probes += 1
        state = self.states.get(key)
        if state is None:
            state = self.admit(key)
        self.used_bytes += state.update(value)
        return state

    def merge_state(self, key: Any, other: AggregateState) -> AggregateState:
        """Fold a partial state for ``key`` into the table."""
        self.probes += 1
        state = self.states.get(key)
        if state is None:
            state = self.admit(key)
        self.used_bytes += state.merge(other)
        return state

    def admit(self, key: Any) -> AggregateState:
        """Give the absent ``key`` a fresh state, charging its bytes."""
        state = self.states[key] = self.aggregator.initial()
        self.used_bytes += estimate_size(key) + _SLOT_BYTES + state.size_bytes()
        return state

    def pop(self, key: Any) -> AggregateState:
        """Remove and return ``key``'s state, releasing its budget."""
        state = self.states.pop(key)
        self.used_bytes -= estimate_size(key) + state.size_bytes() + _SLOT_BYTES
        return state

    def items(self) -> Iterator[tuple[Any, AggregateState]]:
        return iter(self.states.items())

    def results(self) -> Iterator[tuple[Any, Any]]:
        """``(key, state.result())`` for every key (unspecified order)."""
        for key, state in self.states.items():
            yield key, state.result()

    def clear(self) -> None:
        self.states.clear()
        self.used_bytes = 0
