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

import sys
from operator import itemgetter
from typing import Any, Callable, Iterator, Sequence

from repro.core.aggregates import AggregateState, Aggregator, CollectState, SumState
from repro.io.disk import LocalDisk
from repro.io.runio import RunWriter
from repro.io.serialization import estimate_size, estimate_sizes
from repro.mapreduce.partition import stable_hash

__all__ = ["HashFamily", "AccountedStateTable", "SpilledState", "SpillBuckets"]

_MERSENNE_PRIME = (1 << 61) - 1
SLOT_BYTES = 104  # dict slot overhead per entry, amortised
_VALUE = itemgetter(1)


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


class SpilledState:
    """Wrapper marking a spilled partial *state* (vs. a raw value).

    Evicting a resident key writes its accumulated state to the key's disk
    partition; the recursive pass merges it back via ``AggregateState.merge``
    instead of ``update``.  The wrapper disambiguates states from user
    values that might themselves be state-like objects.
    """

    __slots__ = ("state",)
    # Spill frames pickle the class by this path, so it stays where the
    # spill format first put it (hybrid_hash re-exports the class).
    __module__ = "repro.core.hybrid_hash"

    def __init__(self, state: Any) -> None:
        self.state = state


class SpillBuckets:
    """Hashed spill files ``f"{prefix}{bucket:03d}"``; :meth:`write` buckets
    a segment in one loop and makes one ``write_all`` per bucket."""

    __slots__ = ("disk", "prefix", "hash", "writers")

    def __init__(
        self, disk: LocalDisk, prefix: str, hash: Callable[[Any], int], count: int
    ) -> None:
        self.disk, self.prefix, self.hash = disk, prefix, hash
        self.writers: list[RunWriter | None] = [None] * count

    @property
    def records(self) -> int:
        return sum(w.records_written for w in self.writers if w is not None)

    def write(self, pairs: Sequence[tuple[Any, Any]]) -> None:
        buckets: dict[int, list[tuple[Any, Any]]] = {}
        hash_, count, writers = self.hash, len(self.writers), self.writers
        for pair in pairs:
            buckets.setdefault(hash_(pair[0]) % count, []).append(pair)
        for bucket, bucket_pairs in buckets.items():
            if writers[bucket] is None:
                writers[bucket] = RunWriter(self.disk, f"{self.prefix}{bucket:03d}")
            writers[bucket].write_all(bucket_pairs)  # type: ignore[union-attr]


class AccountedStateTable:
    """``key -> AggregateState`` with running byte accounting.

    :meth:`fold` is the one fold: hybrid hash, incremental hash and the
    hot set each hand it their pairs and route the misses it returns, and
    the map-side combiner hands it each block with its flush.  The
    admission rule is fixed at construction:

    * ``capacity`` — admit an absent key while fewer keys are resident;
    * ``budget`` — the first pair that takes :attr:`used_bytes` past it
      latches :attr:`frozen` (recording :attr:`frozen_bytes`); from then on
      only resident keys fold;
    * ``shed`` (with ``budget``) — once frozen, a pair that takes the table
      past ``2 * budget`` pops the largest states until back under budget.

    Nothing is re-measured per fold: a new key is charged its estimate, a
    dict slot and its fresh state once (a fixed-size state's
    ``SIZE_BYTES``), and every fold adds the growth the state itself
    reports (``AggregateState.update`` / ``merge`` return it), but a
    collect table (:attr:`collects`: its states update as
    :class:`CollectState` does) sizes a fold's values in one
    :func:`estimate_sizes` call and appends them itself.  So
    :attr:`used_bytes` always equals
    ``sum(estimate_size(key) + 104 + state.size_bytes())`` over the table.
    :attr:`states` is the backing dict; only this class mutates it.

    A state that declares ``SIZE_BYTES`` reports zero growth from
    ``update`` and ``merge``, so in its table only an admission can move
    :attr:`used_bytes` up: a hit skips the budget check unless a shed is
    due.  A :class:`SumState` table (:attr:`sums`) adds each value (a
    :class:`SpilledState`'s ``total``) to the state's ``total`` itself,
    without a call per pair.

    ``facts`` (the map-side combiner's) is a task's
    :class:`~repro.mapreduce.partition.KeyFacts` memo with overhead
    :data:`SLOT_BYTES`: an admitted ``str`` or ``int`` key is charged
    ``facts[key][1]``, the same estimate plus slot, so its flush finds
    the key routed and sized once per task.
    """

    __slots__ = (
        "aggregator",
        "states",
        "used_bytes",
        "probes",
        "capacity",
        "budget",
        "shed",
        "frozen",
        "frozen_bytes",
        "fixed_bytes",
        "collects",
        "sums",
        "facts",
    )

    def __init__(
        self,
        aggregator: Aggregator,
        *,
        capacity: int = sys.maxsize,
        budget: int | None = None,
        shed: bool = False,
        facts: dict[Any, tuple[int, int]] | None = None,
    ) -> None:
        self.aggregator = aggregator
        self.facts = facts
        self.states: dict[Any, AggregateState] = {}
        self.used_bytes = self.probes = self.frozen_bytes = 0
        self.capacity, self.budget, self.shed = capacity, budget, shed
        self.frozen = False
        probe = aggregator.initial()
        self.fixed_bytes: int = getattr(probe, "SIZE_BYTES", 0)
        self.collects = getattr(type(probe), "update", None) is CollectState.update
        self.sums = type(probe) is SumState

    def __len__(self) -> int:
        return len(self.states)

    def fold(
        self, pairs: Sequence[tuple[Any, Any]], flush: Callable[[], None] | None = None
    ) -> list[tuple[Any, Any]]:
        """Fold ``pairs`` in order; return the misses, in order.

        A resident or admitted key folds its value (a :class:`SpilledState`
        merges); any other pair is a miss.  The budget is checked after
        every pair that can have moved :attr:`used_bytes` (an admission,
        a hit on a state without ``SIZE_BYTES``, any hit while a shed is
        due), so the freeze, each shed and each flush land on the same pair
        however a stream is cut; a shed appends ``(key,
        SpilledState(state))`` to the misses.  With ``flush`` (the map-side
        combiner's), the pair that takes :attr:`used_bytes` to the budget
        calls it instead of freezing; it must empty the table with
        :meth:`clear`, and the fold goes on with the rest.  ``probes``
        grows by the pairs folded, once per call.
        """
        states, budget, capacity, frozen = self.states, self.budget, self.capacity, self.frozen
        make, fixed, facts = self.aggregator.initial, self.fixed_bytes, self.facts
        collects, sums = self.collects, self.sums
        misses: list[tuple[Any, Any]] = []
        used, shed = self.used_bytes, 0
        # A hit on a fixed-size state moves nothing: it checks only while a shed is due.
        recheck = budget is not None and (not fixed or (frozen and self.shed and used > 2 * budget))
        sizes = iter(estimate_sizes(list(map(_VALUE, pairs)))) if collects else None
        for key, value in pairs:
            state = states.get(key)
            if state is None:
                if frozen or len(states) >= capacity:
                    if collects:
                        next(sizes)  # type: ignore[arg-type]
                    misses.append((key, value))
                    continue
                state = states[key] = make()
                t = type(key)
                if facts is not None and (t is str or t is int):
                    used += facts[key][1] + (fixed or state.size_bytes())
                else:
                    used += estimate_size(key) + SLOT_BYTES + (fixed or state.size_bytes())
                check = budget is not None
            else:
                check = recheck
            if sums:
                state.total += value.state.total if isinstance(value, SpilledState) else value
            elif collects:
                size = next(sizes)  # type: ignore[arg-type]
                if isinstance(value, SpilledState):
                    used += state.merge(value.state)
                else:
                    state.values.append(value)
                    state._bytes += size + 8
                    used += size + 8
            elif isinstance(value, SpilledState):
                used += state.merge(value.state)
            else:
                used += state.update(value)
            if not check:
                continue
            if not frozen:
                if used >= budget and flush is not None:  # type: ignore[operator]
                    self.used_bytes = used
                    flush()
                    used = self.used_bytes
                elif used > budget:  # type: ignore[operator]
                    self.frozen = frozen = True
                    self.frozen_bytes = used
                    recheck |= self.shed and used > 2 * budget  # type: ignore[operator]
            elif self.shed and used > 2 * budget:  # type: ignore[operator]
                # Linear states (collect/session) outgrow a frozen key set;
                # a shed leaves a fixed-size table under budget for good.
                self.used_bytes = used
                shed += self._shed(misses)
                used = self.used_bytes
                recheck = not fixed
        self.used_bytes = used
        self.probes += len(pairs) - len(misses) + shed
        return misses

    def _shed(self, misses: list[tuple[Any, Any]]) -> int:
        """Pop the largest states onto ``misses`` until back under budget;
        returns how many."""
        by_size = sorted(self.states.items(), key=lambda kv: kv[1].size_bytes(), reverse=True)
        for popped, (key, _state) in enumerate(by_size):
            if self.used_bytes <= self.budget:
                return popped
            misses.append((key, SpilledState(self.pop(key))))
        return len(by_size)

    def pop(self, key: Any) -> AggregateState:
        """Remove and return ``key``'s state, releasing its budget."""
        state = self.states.pop(key)
        self.used_bytes -= estimate_size(key) + state.size_bytes() + SLOT_BYTES
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
