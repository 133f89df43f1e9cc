"""Aggregate states for incremental (one-pass) processing.

The paper's incremental hash technique "maintains a state for each key, and
updates it incrementally"; its memory argument rests on the observation
that "the size of a state is usually sublinear in the number of values
aggregated".  This module supplies that state abstraction:

* :class:`AggregateState` — update / merge / result / size protocol;
* constant-size states (:class:`CountState`, :class:`SumState`,
  :class:`AvgState`, :class:`MinState`, :class:`MaxState`,
  :class:`SumCountState`);
* bounded states (:class:`TopKState`);
* linear states (:class:`CollectState`, :class:`SessionState`) for tasks
  like sessionization whose reduce function genuinely needs all values.

States must satisfy the combiner algebra: ``merge`` is commutative and
associative, and interleaving ``update``/``merge`` in any order over the
same multiset of values yields the same ``result()``.  The property-based
tests exercise exactly that invariant.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generic, Iterable, Protocol, TypeVar

from repro.io.serialization import estimate_size

__all__ = [
    "AggregateState",
    "Aggregator",
    "CountState",
    "SumState",
    "SumCountState",
    "AvgState",
    "MinState",
    "MaxState",
    "TopKState",
    "CollectState",
    "SessionState",
    "COUNT",
    "SUM",
    "AVG",
    "MIN",
    "MAX",
    "COLLECT",
    "top_k",
    "sessionize",
    "fold",
]

T = TypeVar("T")


class AggregateState(Protocol):
    """One key's running aggregate."""

    def update(self, value: Any) -> int:
        """Fold one new value in; return the bytes ``size_bytes()`` grew by
        (exactly, so a table keeps a running total without re-measuring)."""
        ...

    def merge(self, other: "AggregateState") -> int:
        """Fold another state for the same key in; return the bytes grown."""
        ...

    def result(self) -> Any:
        """The current (possibly early) answer for this key."""
        ...

    def size_bytes(self) -> int:
        """Approximate in-memory footprint, for memory budgeting."""
        ...


class Aggregator(Generic[T]):
    """Factory bundling a state constructor with a descriptive name."""

    def __init__(self, name: str, make: Callable[[], AggregateState]) -> None:
        self.name = name
        self._make = make

    def initial(self) -> AggregateState:
        return self._make()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Aggregator({self.name!r})"


class CountState:
    """COUNT(*): one integer."""

    __slots__ = ("n",)

    def __init__(self) -> None:
        self.n = 0

    def update(self, value: Any) -> int:
        self.n += 1
        return 0

    def merge(self, other: "CountState") -> int:
        self.n += other.n
        return 0

    def result(self) -> int:
        return self.n

    def size_bytes(self) -> int:
        return 64


class SumState:
    """SUM(value): one accumulator.

    For counting jobs whose map emits ``(key, 1)`` and whose combiner emits
    partial counts, SUM is the right reduce-side state (each incoming value
    may itself be a partial sum).
    """

    __slots__ = ("total",)

    def __init__(self) -> None:
        self.total = 0

    def update(self, value: Any) -> int:
        self.total += value
        return 0

    def merge(self, other: "SumState") -> int:
        self.total += other.total
        return 0

    def result(self) -> Any:
        return self.total

    def size_bytes(self) -> int:
        return 64


class SumCountState:
    """(sum, count) pair — the building block of AVG."""

    __slots__ = ("total", "n")

    def __init__(self) -> None:
        self.total = 0
        self.n = 0

    def update(self, value: Any) -> int:
        self.total += value
        self.n += 1
        return 0

    def merge(self, other: "SumCountState") -> int:
        self.total += other.total
        self.n += other.n
        return 0

    def result(self) -> tuple[Any, int]:
        return (self.total, self.n)

    def size_bytes(self) -> int:
        return 96


class AvgState(SumCountState):
    """AVG(value); ``result`` is the running mean."""

    __slots__ = ()

    def result(self) -> float:
        if self.n == 0:
            raise ValueError("average of empty state")
        return self.total / self.n


def _best_bytes(best: Any) -> int:
    """What a MIN/MAX state is charged for its extremum (``None`` = unset)."""
    return estimate_size(best) if best is not None else 0


class MinState:
    """MIN(value)."""

    __slots__ = ("best",)

    def __init__(self) -> None:
        self.best: Any = None

    def update(self, value: Any) -> int:
        best = self.best
        if best is None or value < best:
            self.best = value
            return _best_bytes(value) - _best_bytes(best)
        return 0

    def merge(self, other: "MinState") -> int:
        return self.update(other.best) if other.best is not None else 0

    def result(self) -> Any:
        if self.best is None:
            raise ValueError("min of empty state")
        return self.best

    def size_bytes(self) -> int:
        return 64 + _best_bytes(self.best)


class MaxState:
    """MAX(value)."""

    __slots__ = ("best",)

    def __init__(self) -> None:
        self.best: Any = None

    def update(self, value: Any) -> int:
        best = self.best
        if best is None or value > best:
            self.best = value
            return _best_bytes(value) - _best_bytes(best)
        return 0

    def merge(self, other: "MaxState") -> int:
        return self.update(other.best) if other.best is not None else 0

    def result(self) -> Any:
        if self.best is None:
            raise ValueError("max of empty state")
        return self.best

    def size_bytes(self) -> int:
        return 64 + _best_bytes(self.best)


class TopKState:
    """Largest ``k`` values (a bounded state; §IV's open question of
    combiners for complex tasks like top-k has a clean answer for
    per-key top-k: a size-k heap merges associatively)."""

    __slots__ = ("k", "_heap")

    def __init__(self, k: int) -> None:
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k
        self._heap: list[Any] = []

    def update(self, value: Any) -> int:
        if len(self._heap) < self.k:
            heapq.heappush(self._heap, value)
            return 32
        if value > self._heap[0]:
            heapq.heapreplace(self._heap, value)
        return 0

    def merge(self, other: "TopKState") -> int:
        return sum([self.update(value) for value in other._heap])

    def result(self) -> list[Any]:
        return sorted(self._heap, reverse=True)

    def size_bytes(self) -> int:
        return 64 + 32 * len(self._heap)


class CollectState:
    """Collect every value — a linear-size state.

    Needed when the reduce function is holistic (sessionization, inverted
    index posting lists).  Its footprint grows with the data, which is what
    makes memory management interesting for these workloads.
    """

    __slots__ = ("values", "_bytes")

    def __init__(self) -> None:
        self.values: list[Any] = []
        self._bytes = 64

    def update(self, value: Any) -> int:
        self.values.append(value)
        grown = estimate_size(value) + 8
        self._bytes += grown
        return grown

    def merge(self, other: "CollectState") -> int:
        self.values.extend(other.values)
        grown = other._bytes - 64
        self._bytes += grown
        return grown

    def result(self) -> list[Any]:
        return list(self.values)

    def size_bytes(self) -> int:
        return self._bytes


class SessionState(CollectState):
    """Collects ``(timestamp, payload)`` clicks; ``result`` returns sessions.

    A session is a maximal run of clicks (ordered by timestamp) with
    inter-click gaps below ``gap``.  The final sort makes this state
    holistic, but it still merges associatively because ``result`` sorts.
    """

    __slots__ = ("gap",)

    def __init__(self, gap: float = 1800.0) -> None:
        super().__init__()
        if gap <= 0:
            raise ValueError("session gap must be positive")
        self.gap = gap

    def result(self) -> list[list[Any]]:
        if not self.values:
            return []
        ordered = sorted(self.values, key=lambda click: click[0])
        sessions: list[list[Any]] = [[ordered[0]]]
        for click in ordered[1:]:
            if click[0] - sessions[-1][-1][0] > self.gap:
                sessions.append([click])
            else:
                sessions[-1].append(click)
        return sessions


# -- ready-made aggregators ---------------------------------------------------

COUNT: Aggregator[int] = Aggregator("count", CountState)
SUM: Aggregator[Any] = Aggregator("sum", SumState)
AVG: Aggregator[float] = Aggregator("avg", AvgState)
MIN: Aggregator[Any] = Aggregator("min", MinState)
MAX: Aggregator[Any] = Aggregator("max", MaxState)
COLLECT: Aggregator[list] = Aggregator("collect", CollectState)


def top_k(k: int) -> Aggregator[list]:
    """Aggregator producing each key's ``k`` largest values."""
    return Aggregator(f"top{k}", lambda: TopKState(k))


def sessionize(gap: float = 1800.0) -> Aggregator[list]:
    """Aggregator producing each user's click sessions (gap in seconds)."""
    return Aggregator(f"session(gap={gap:g})", lambda: SessionState(gap))


def fold(aggregator: Aggregator, values: Iterable[Any]) -> Any:
    """Convenience: run ``values`` through a fresh state and return result."""
    state = aggregator.initial()
    for value in values:
        state.update(value)
    return state.result()
