"""Online frequent-items: the Space-Saving algorithm.

The paper's technique (3) "borrow[s] an existing online frequent algorithm
to identify hot keys, and keep[s] hot keys in memory".  Space-Saving
(Metwally, Agrawal, El Abbadi 2005) is the canonical such algorithm: it
maintains at most ``capacity`` counters; an untracked arrival replaces the
minimum counter, inheriting its count as over-estimation error.

Guarantees used by the hot-set cache and verified by the property tests:

* every key with true frequency > N / capacity is tracked;
* for a tracked key, ``estimate - error <= true count <= estimate``;
* the sum of all stored counts equals the number of offers ``N``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any, Hashable, Iterable

__all__ = ["TrackedKey", "SpaceSaving"]


@dataclass(frozen=True, slots=True)
class TrackedKey:
    """One monitored key with its estimated count and max over-estimation."""

    key: Any
    count: int
    error: int

    @property
    def guaranteed(self) -> int:
        """A lower bound on the key's true count."""
        return self.count - self.error


class SpaceSaving:
    """Fixed-capacity frequent-items sketch over a key stream."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._counts: dict[Any, int] = {}
        self._errors: dict[Any, int] = {}
        # Min-heap of (count, seq, key) with lazy invalidation: an entry is
        # stale when its count no longer matches _counts[key].
        self._heap: list[tuple[int, int, Any]] = []
        self._seq = 0
        self.total = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._counts)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._counts

    def _push(self, key: Any, count: int) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (count, self._seq, key))
        # Compact lazily so the heap stays O(capacity).
        if len(self._heap) > 8 * self.capacity:
            self._compact()

    def _compact(self) -> None:
        """Drop the stale heap entries in place.  Each tracked key has one
        valid entry, so at most ``capacity`` remain; they keep their ``seq``,
        so ties never compare keys and pops run in the order they would have."""
        counts = self._counts
        self._heap[:] = [e for e in self._heap if counts.get(e[2]) == e[0]]
        heapq.heapify(self._heap)

    def _pop_min(self) -> tuple[Any, int]:
        """Remove and return the currently minimal (key, count)."""
        while self._heap:
            count, _seq, key = heapq.heappop(self._heap)
            if self._counts.get(key) == count:
                return key, count
        raise RuntimeError("heap/table desynchronised")  # pragma: no cover

    def offer(self, key: Hashable, count: int = 1) -> Any | None:
        """Observe ``count`` occurrences of ``key``.

        Returns the key that was evicted to make room, or ``None``.  The
        offered key is always tracked afterwards.
        """
        if count < 1:
            raise ValueError("count must be >= 1")
        self.total += count
        current = self._counts.get(key)
        if current is not None:
            new = current + count
            self._counts[key] = new
            self._push(key, new)
            return None
        if len(self._counts) < self.capacity:
            self._counts[key] = count
            self._errors[key] = 0
            self._push(key, count)
            return None
        victim, victim_count = self._pop_min()
        del self._counts[victim]
        del self._errors[victim]
        self.evictions += 1
        new = victim_count + count
        self._counts[key] = new
        self._errors[key] = victim_count
        self._push(key, new)
        return victim

    def offer_all(self, keys: Iterable[Hashable]) -> None:
        """:meth:`offer` one occurrence of each key in turn, lookups hoisted:
        counts, errors, heap entries and their ``seq``, evictions and
        compactions change exactly as under one ``offer(key)`` per key."""
        counts, errors, heap = self._counts, self._errors, self._heap
        push, capacity, limit = heapq.heappush, self.capacity, 8 * self.capacity
        seq = self._seq
        try:
            for key in keys:
                count = counts.get(key)
                if count is not None:
                    count += 1
                elif len(counts) < capacity:
                    count = 1
                    errors[key] = 0
                else:
                    victim, floor = self._pop_min()
                    del counts[victim], errors[victim]
                    self.evictions += 1
                    count = floor + 1
                    errors[key] = floor
                counts[key] = count
                seq += 1
                push(heap, (count, seq, key))
                if len(heap) > limit:
                    self._compact()
        finally:  # every offer takes one sequence number
            self.total += seq - self._seq
            self._seq = seq

    # -- queries ---------------------------------------------------------------

    def estimate(self, key: Hashable) -> TrackedKey | None:
        """The tracked entry for ``key``, or ``None`` if untracked."""
        count = self._counts.get(key)
        if count is None:
            return None
        return TrackedKey(key=key, count=count, error=self._errors[key])

    def entries(self) -> list[TrackedKey]:
        """All tracked entries, most frequent first; among equal counts the
        smaller error first, then tracking order."""
        return self.top(len(self._counts))

    def ranked_keys(self) -> list[Any]:
        """Tracked keys in :meth:`entries` order: two stable C-keyed sorts."""
        counts, errors = self._counts, self._errors
        ranked = list(counts)
        ranked.sort(key=errors.__getitem__)
        ranked.sort(key=counts.__getitem__, reverse=True)
        return ranked

    def top(self, k: int) -> list[TrackedKey]:
        """The first ``k`` of :meth:`entries`; only those are built."""
        counts, errors = self._counts, self._errors
        return [TrackedKey(key, counts[key], errors[key]) for key in self.ranked_keys()[:k]]

    def guaranteed_top(self, k: int) -> list[TrackedKey]:
        """Entries *provably* in the stream's top-``k``.

        An entry is guaranteed when its lower bound (count - error) is at
        least the estimated count of the (k+1)-th entry.
        """
        entries = self.entries()
        if len(entries) <= k:
            return [e for e in entries if e.error == 0] or entries
        cutoff = entries[k].count
        return [e for e in entries[:k] if e.guaranteed >= cutoff]

    def heavy_hitters(self, phi: float) -> list[TrackedKey]:
        """Entries whose guaranteed count exceeds ``phi * total``."""
        if not 0 < phi < 1:
            raise ValueError("phi must lie in (0, 1)")
        threshold = phi * self.total
        return [e for e in self.entries() if e.guaranteed > threshold]
