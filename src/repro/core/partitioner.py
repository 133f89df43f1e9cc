"""Map-side output handling without sorting.

The paper's map module offers two options to replace Hadoop's sort:

1. **Scan-only partitioning** (no combine function): "the map output is
   scanned once for partitioning, and no effort is spent for grouping."
   :class:`ScanPartitionBuffer` appends each pair to its reducer's buffer
   and pushes a chunk downstream when the buffer fills.
2. **Map-side hybrid hash** (combine function present): pairs aggregate
   into per-partition in-memory hash tables ("in most cases the map output
   fits in memory so Hybrid Hash is simply in-memory hashing"); when the
   task's memory budget fills, each table's partial *states* are flushed
   downstream and the tables reset.  Downstream consumers fold the states
   via ``AggregateState.merge``.

Neither option ever compares keys for order — the CPU the baseline spends
in Table II's "Sorting" row simply does not exist on this path.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Callable, Sequence

from repro.core.aggregates import Aggregator
from repro.core.hash_tables import AccountedStateTable
from repro.core.hybrid_hash import SpilledState
from repro.io.serialization import estimate_sizes
from repro.mapreduce.counters import C, Counters
from repro.mapreduce.partition import KeyFacts, KeyPartitions, Partitioner, hash_partitioner

__all__ = ["ScanPartitionBuffer", "MapSideHashCombiner"]

#: Called with (partition, pairs, approx_bytes) whenever a chunk is ready.
ChunkSink = Callable[[int, list[tuple[Any, Any]], int], None]

_PAIR_OVERHEAD = 32
_VALUE = itemgetter(1)


class ScanPartitionBuffer:
    """Option 1: partition map output in one scan, no grouping, no sort."""

    def __init__(
        self,
        num_partitions: int,
        sink: ChunkSink,
        *,
        buffer_bytes: int = 4 * 1024 * 1024,
        partitioner: Partitioner = hash_partitioner,
        counters: Counters | None = None,
    ) -> None:
        if num_partitions < 1:
            raise ValueError("num_partitions must be >= 1")
        self.num_partitions = num_partitions
        self.sink = sink
        self.buffer_bytes = buffer_bytes
        self.partitioner = partitioner
        self.counters = counters if counters is not None else Counters()
        self._buffers: list[list[tuple[Any, Any]]] = [
            [] for _ in range(num_partitions)
        ]
        self._bytes = [0] * num_partitions
        self._facts = KeyFacts(partitioner, num_partitions, _PAIR_OVERHEAD)

    def add(self, key: Any, value: Any) -> None:
        self.add_block(((key, value),))

    def add_block(self, pairs: Sequence[tuple[Any, Any]]) -> None:
        """The collect loop: partition ``pairs``, flushing each full buffer.

        The flush threshold is checked after every pair, so chunk
        boundaries do not depend on how the stream is cut into blocks;
        a key is routed and sized once per task (:class:`KeyFacts`), the
        block's values in one :func:`estimate_sizes` call, and the
        counter moves once per block.
        """
        facts = self._facts
        buffers = self._buffers
        sizes = self._bytes
        budget = self.buffer_bytes
        for (key, value), value_bytes in zip(pairs, estimate_sizes(list(map(_VALUE, pairs)))):
            t = type(key)
            partition, key_bytes = facts[key] if t is str or t is int else facts.of(key)
            buffers[partition].append((key, value))
            sizes[partition] += key_bytes + value_bytes
            if sizes[partition] >= budget:
                self._flush(partition)
        self.counters.inc(C.MAP_OUTPUT_RECORDS, len(pairs))

    add_batch = add_block  # the name the benchmark's probes call

    def _flush(self, partition: int) -> None:
        pairs = self._buffers[partition]
        if not pairs:
            return
        nbytes = self._bytes[partition]
        self._buffers[partition] = []
        self._bytes[partition] = 0
        self.sink(partition, pairs, nbytes)

    def finish(self) -> None:
        for partition in range(self.num_partitions):
            self._flush(partition)


class MapSideHashCombiner:
    """Option 2: per-partition in-memory hash aggregation (Hybrid Hash).

    The flush unit is the whole task (all partitions) because the memory
    budget is shared; each flush emits ``(key, SpilledState)`` pairs that
    the reducer merges, so the algebra works for any aggregator.
    """

    def __init__(
        self,
        num_partitions: int,
        aggregator: Aggregator,
        sink: ChunkSink,
        *,
        memory_bytes: int = 8 * 1024 * 1024,
        partitioner: Partitioner = hash_partitioner,
        counters: Counters | None = None,
    ) -> None:
        if num_partitions < 1:
            raise ValueError("num_partitions must be >= 1")
        if memory_bytes <= 0:
            raise ValueError("memory_bytes must be positive")
        self.num_partitions = num_partitions
        self.aggregator = aggregator
        self.sink = sink
        self.memory_bytes = memory_bytes
        self.partitioner = partitioner
        self.counters = counters if counters is not None else Counters()
        self._tables = [AccountedStateTable(aggregator) for _ in range(num_partitions)]
        #: Running total of every table's ``used_bytes``; zero after a flush.
        self.used_bytes = 0
        self.flushes = 0
        self._partitions = KeyPartitions(partitioner, num_partitions)

    def add(self, key: Any, value: Any) -> None:
        self.add_block(((key, value),))

    def add_block(self, pairs: Sequence[tuple[Any, Any]]) -> None:
        """The collect loop: aggregate ``pairs``, flushing at the budget.

        The shared-budget check runs after every pair, against a running
        total moved by each table update's delta — O(1) per pair, not a
        sum over all partitions' tables.
        """
        partitioner = self.partitioner
        num_partitions = self.num_partitions
        memo = self._partitions
        tables = self._tables
        memory = self.memory_bytes
        used = self.used_bytes
        for key, value in pairs:
            t = type(key)
            table = tables[memo[key] if t is str or t is int else partitioner(key, num_partitions)]
            used -= table.used_bytes
            table.update(key, value)
            used += table.used_bytes
            if used >= memory:
                self.used_bytes = used
                self.flush()
                used = 0
        self.used_bytes = used
        self.counters.inc(C.MAP_OUTPUT_RECORDS, len(pairs))

    add_batch = add_block  # the name the benchmark's probes call

    def flush(self) -> None:
        """Emit every partition's partial states downstream and reset."""
        any_emitted = False
        for partition, table in enumerate(self._tables):
            if len(table) == 0:
                continue
            pairs = [
                (key, SpilledState(state)) for key, state in table.items()
            ]
            nbytes = table.used_bytes
            table.clear()
            self.sink(partition, pairs, nbytes)
            self.counters.inc(C.COMBINE_OUTPUT_RECORDS, len(pairs))
            any_emitted = True
        self.used_bytes = 0
        if any_emitted:
            self.flushes += 1

    def finish(self) -> None:
        self.flush()
