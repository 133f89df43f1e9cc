"""Hybrid hash grouping (Shapiro 1986), adapted to MapReduce group-by.

This is technique (1) of the paper's reduce module: replace sort-merge
grouping with hashing.  Keys that arrive while memory is available build an
in-memory table and never touch disk; once the memory budget is exhausted
the resident key set is *frozen* — resident keys keep aggregating in memory
— and pairs for non-resident keys are hashed into ``B`` disk partitions.
At :meth:`finish`, resident groups are emitted directly and each disk
partition is processed recursively with the next hash function of a
pairwise-independent family.

Properties the benchmarks verify:

* **No sorting** — zero CPU spent ordering keys (Table II's 39–48% map-CPU
  and the equivalent reduce-side cost disappear).
* **Still blocking and I/O-bound when memory is short** — the paper is
  explicit that plain hybrid hash has "I/O cost comparable to the
  sort-merge based implementation"; incremental hash (technique 2) and the
  hot-key optimisation (technique 3) are what remove it.
"""

from __future__ import annotations

from typing import Any, Iterator, Sequence

from repro.core.aggregates import COLLECT, Aggregator
from repro.core.hash_tables import AccountedStateTable, HashFamily, SpillBuckets, SpilledState
from repro.io.disk import LocalDisk
from repro.io.runio import stream_pieces
from repro.mapreduce.counters import C, Counters

__all__ = ["HybridHashGrouper", "SpilledState"]

#: One hash function per recursion level, so a partition that overflowed
#: under level ``i`` splits again under level ``i + 1``.
_HASH_FAMILY = HashFamily()


class HybridHashGrouper:
    """Group ``(key, value)`` pairs by key under a memory budget.

    Parameters
    ----------
    disk:
        Local disk receiving overflow partitions.
    namespace:
        Prefix for this grouper's spill files.
    memory_bytes:
        Budget for the in-memory table (per recursion level).
    aggregator:
        State per key; :data:`~repro.core.aggregates.COLLECT` reproduces
        plain grouping (emit the full value list per key).
    spill_partitions:
        ``B``, the fan-out of disk partitioning on overflow.
    max_levels:
        Recursion cap; beyond it a partition is processed without a budget
        (only reachable under adversarial hash collisions).
    """

    def __init__(
        self,
        disk: LocalDisk,
        namespace: str,
        memory_bytes: int,
        *,
        aggregator: Aggregator = COLLECT,
        spill_partitions: int = 8,
        level: int = 0,
        max_levels: int = 10,
        counters: Counters | None = None,
    ) -> None:
        if memory_bytes <= 0:
            raise ValueError("memory_bytes must be positive")
        if spill_partitions < 2:
            raise ValueError("spill_partitions must be >= 2")
        self.disk = disk
        self.namespace = namespace.rstrip("/")
        self.memory_bytes = memory_bytes
        self.aggregator = aggregator
        self.spill_partitions = spill_partitions
        self.level = level
        self.max_levels = max_levels
        self.counters = counters if counters is not None else Counters()
        self._table = AccountedStateTable(aggregator, budget=memory_bytes, shed=True)
        self._spills = SpillBuckets(
            disk, f"{self.namespace}/hh-l{level}-b", _HASH_FAMILY.member(level), spill_partitions
        )
        self._finished = False

    # -- ingestion -----------------------------------------------------------

    @property
    def frozen(self) -> bool:
        """True once the resident key set stopped admitting new keys."""
        return self._table.frozen

    @property
    def resident_keys(self) -> int:
        return len(self._table)

    @property
    def spilled_records(self) -> int:
        return self._spills.records

    def add(self, key: Any, value: Any) -> None:
        """Route one pair: :meth:`add_batch` of one."""
        self.add_batch(((key, value),))

    def add_batch(self, pairs: Sequence[tuple[Any, Any]]) -> None:
        """Fold ``pairs`` into the in-memory table; spill what it does not take.

        A value may be a :class:`SpilledState` produced by an eviction at
        an outer recursion level; it is merged rather than folded.  The
        table checks the budget after every pair, so the freeze and every
        shed land on the same pair however the stream is cut, and its
        misses (cold pairs, and shed states where they were shed) reach
        disk in order, a bucket at a time.
        """
        if self._finished:
            raise RuntimeError("grouper already finished")
        table = self._table
        frozen = table.frozen
        misses = table.fold(pairs)
        if table.frozen and not frozen:
            self.counters.set_max(C.HASH_STATE_BYTES_PEAK, table.frozen_bytes)
        if misses:
            self._spills.write(misses)

    # -- results ----------------------------------------------------------------

    def finish(self) -> Iterator[tuple[Any, Any]]:
        """Emit every ``(key, aggregated result)``; recurse into overflow.

        Blocking by construction: nothing is emitted until the caller has
        added the last pair.
        """
        if self._finished:
            raise RuntimeError("grouper already finished")
        self._finished = True
        self.counters.set_max(C.HASH_STATE_BYTES_PEAK, self._table.used_bytes)
        self.counters.inc(C.HASH_PROBES, self._table.probes)
        yield from self._table.results()
        self._table.clear()

        for bucket, writer in enumerate(self._spills.writers):
            if writer is None:
                continue
            writer.close()
            self.counters.inc(C.REDUCE_SPILL_BYTES, writer.bytes_written)
            self.counters.inc(C.REDUCE_SPILLS)
            yield from self._process_partition(writer.path, bucket)

    def _process_partition(self, path: str, bucket: int) -> Iterator[tuple[Any, Any]]:
        if self.level + 1 >= self.max_levels:
            # Pathological recursion (hash collisions): finish without a
            # budget rather than loop forever.
            table = AccountedStateTable(self.aggregator)
            fold, drain = table.fold, table.results
        else:
            child = HybridHashGrouper(
                self.disk,
                f"{self.namespace}/b{bucket:03d}",
                self.memory_bytes,
                aggregator=self.aggregator,
                spill_partitions=self.spill_partitions,
                level=self.level + 1,
                max_levels=self.max_levels,
                counters=self.counters,
            )
            fold, drain = child.add_batch, child.finish
        for piece in stream_pieces(self.disk, path):
            fold(piece)
        self.disk.delete(path)
        yield from drain()
