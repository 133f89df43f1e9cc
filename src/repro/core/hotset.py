"""Hot-key incremental hash: technique (3) of the paper's reduce module.

When memory cannot hold the states of *all* keys, the paper proposes to
"borrow an existing online frequent algorithm to identify hot keys, and
keep hot keys in memory ... maintaining hot keys instead of random keys in
memory results in less I/Os.  Moreover, hot keys are typically of greater
importance to the users.  This technique can return (approximate) results
for these keys as early as when all the input data has arrived."

:class:`HotSetIncrementalHash` implements exactly that:

* a :class:`~repro.core.frequent.SpaceSaving` sketch watches the key stream;
* at most ``capacity`` keys hold in-memory aggregate states;
* pairs for cold keys are spilled raw to hashed disk partitions;
* the resident set refreshes periodically against the sketch's current
  top-``capacity``, spilling evicted states (not their raw history);
* :meth:`approximate_results` returns the hot keys' running answers with
  the sketch's per-key error bounds — available with **zero additional
  I/O** the moment the input ends;
* :meth:`results` produces exact answers for *every* key by replaying the
  cold spills through hybrid hash and merging with the resident states.

Because constant-size states dominate spill entries only for cold keys,
skewed key distributions (the interesting case for "important groups")
cut reduce-side spill I/O by orders of magnitude relative to sort-merge's
write-everything-then-merge behaviour — the paper's headline §V claim.
"""

from __future__ import annotations

from typing import Any, Iterator, Sequence

from repro.core.aggregates import Aggregator
from repro.core.frequent import SpaceSaving, TrackedKey
from repro.core.hash_tables import AccountedStateTable, HashFamily, SpillBuckets, SpilledState
from repro.core.hybrid_hash import HybridHashGrouper
from repro.io.disk import LocalDisk
from repro.io.runio import stream_pieces
from repro.mapreduce.counters import C, Counters

__all__ = ["ApproximateResult", "HotSetIncrementalHash"]


class ApproximateResult:
    """A hot key's early answer plus its frequency bounds from the sketch."""

    __slots__ = ("key", "result", "count_estimate", "count_error")

    def __init__(self, key: Any, result: Any, tracked: TrackedKey | None) -> None:
        self.key = key
        self.result = result
        self.count_estimate = tracked.count if tracked else 0
        self.count_error = tracked.error if tracked else 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ApproximateResult({self.key!r}, {self.result!r}, "
            f"count<= {self.count_estimate}, err<= {self.count_error})"
        )


class HotSetIncrementalHash:
    """Incremental hash with a frequency-managed resident set."""

    def __init__(
        self,
        aggregator: Aggregator,
        disk: LocalDisk,
        namespace: str,
        *,
        capacity: int,
        refresh_interval: int | None = None,
        spill_partitions: int = 8,
        counters: Counters | None = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if refresh_interval is not None and refresh_interval < 1:
            raise ValueError("refresh_interval must be >= 1")
        if spill_partitions < 2:
            raise ValueError("spill_partitions must be >= 2")
        self.aggregator = aggregator
        self.disk = disk
        self.namespace = namespace.rstrip("/")
        self.capacity = capacity
        self.sketch = SpaceSaving(4 * capacity)
        # Refresh seldom enough that resident-set churn stays a small
        # fraction of the stream; each refresh can evict O(capacity) states.
        self.refresh_interval = (
            max(2048, 4 * capacity) if refresh_interval is None else refresh_interval
        )
        self.spill_partitions = spill_partitions
        self.counters = counters if counters is not None else Counters()
        self._table = AccountedStateTable(aggregator, capacity=capacity)
        self._spills = SpillBuckets(
            disk, f"{self.namespace}/cold-b", HashFamily(seed=0x5EED).member(0), spill_partitions
        )
        self._since_refresh = 0
        self._finished = False
        self.updates = 0

    # -- ingestion -----------------------------------------------------------

    @property
    def resident_keys(self) -> int:
        return len(self._table)

    @property
    def spilled_records(self) -> int:
        """Pairs written cold so far (live; bytes settle only on flush)."""
        return self._spills.records

    def update(self, key: Any, value: Any) -> None:
        """Observe one pair: :meth:`update_batch` of one."""
        self.update_batch(((key, value),))

    def update_batch(self, pairs: Sequence[tuple[Any, Any]]) -> None:
        """Observe pairs in order: aggregate each in memory if hot, else spill it raw.

        A key is hot if resident or if the table has room.  Only
        :meth:`_refresh` reads the sketch, every ``refresh_interval`` pairs
        however the stream is cut, so each segment up to a refresh point
        offers the sketch its keys in one call and is one table fold."""
        if self._finished:
            raise RuntimeError("hot-set hash already finished")
        fold, counters, offer_all = self._table.fold, self.counters, self.sketch.offer_all
        spill = self._spills.write
        start = 0
        while start < len(pairs):
            end = start + self.refresh_interval - self._since_refresh
            segment = pairs[start:end]
            offer_all([key for key, _ in segment])
            misses = fold(segment)
            if misses:
                spill(misses)
            hits = len(segment) - len(misses)
            # A zero inc would insert the name early: counters keep insertion order.
            if hits:
                counters.inc(C.HOT_HITS, hits)
            if misses:
                counters.inc(C.HOT_MISSES, len(misses))
            self.updates += len(segment)
            self._since_refresh += len(segment)
            if self._since_refresh >= self.refresh_interval:
                self._refresh()
            start = end

    def _refresh(self) -> None:
        """Realign the resident set with the sketch's current top keys.

        Evicted states are spilled *as states*, so an evicted key's history
        costs one constant-size entry rather than its full raw pair list.
        """
        self._since_refresh = 0
        hot = {t.key for t in self.sketch.top(self.capacity)}
        resident = {key for key, _ in self._table.items()}
        # Eviction (and hence spill) order must not depend on the
        # process hash seed; repr-keyed sort handles mixed key types.
        for key in sorted(resident - hot, key=repr):
            self._spills.write([(key, SpilledState(self._table.pop(key)))])
            self.counters.inc(C.HOT_EVICTIONS)
        # Newly hot keys start their state on their next arrival; their
        # prior history already lives in the cold spills.

    # -- early (approximate) answers ------------------------------------------

    def approximate_results(self) -> Iterator[ApproximateResult]:
        """Hot keys' running answers, with sketch error bounds; no I/O.

        A hot key's aggregate may miss the pairs that arrived before the
        key entered the resident set (those are in the cold spills), so the
        value is a lower bound for monotone aggregates like counts.
        """
        for key, state in self._table.items():
            yield ApproximateResult(key, state.result(), self.sketch.estimate(key))

    # -- exact finalisation --------------------------------------------------------

    def results(self) -> Iterator[tuple[Any, Any]]:
        """Exact answers for all keys: replay cold spills and merge.

        Resident states are injected into a hybrid-hash pass over the cold
        partitions, so a key split between memory and disk reunites.
        """
        if self._finished:
            raise RuntimeError("hot-set hash already finished")
        self._finished = True
        self.counters.set_max(C.HASH_STATE_BYTES_PEAK, self._table.used_bytes)
        self.counters.inc(C.HASH_PROBES, self._table.probes)
        budget = max(self._table.used_bytes, 1 << 16)

        cold_paths: list[str] = []
        for writer in self._spills.writers:
            if writer is not None:
                writer.close()
                self.counters.inc(C.REDUCE_SPILL_BYTES, writer.bytes_written)
                self.counters.inc(C.REDUCE_SPILLS)
                cold_paths.append(writer.path)

        if not cold_paths:
            yield from self._table.results()
            self._table.clear()
            return

        grouper = HybridHashGrouper(
            self.disk,
            f"{self.namespace}/finish",
            budget,
            aggregator=self.aggregator,
            spill_partitions=self.spill_partitions,
            counters=self.counters,
        )
        grouper.add_batch([(key, SpilledState(state)) for key, state in self._table.items()])
        self._table.clear()
        for path in cold_paths:
            for piece in stream_pieces(self.disk, path):
                grouper.add_batch(piece)
            self.disk.delete(path)
        yield from grouper.finish()
