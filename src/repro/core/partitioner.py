"""Map-side output handling without sorting.

The paper's map module offers two options to replace Hadoop's sort:

1. **Scan-only partitioning** (no combine function): "the map output is
   scanned once for partitioning, and no effort is spent for grouping."
   :class:`ScanPartitionBuffer` appends each pair to its reducer's buffer
   and pushes a chunk downstream when the buffer fills.
2. **Map-side hybrid hash** (combine function present): each block of
   pairs folds into one task-wide in-memory hash table ("in most cases the
   map output fits in memory so Hybrid Hash is simply in-memory hashing");
   when the task's memory budget fills, the table's partial *states* are
   flushed downstream, split by partition, and the table resets.
   Downstream consumers merge the states (or fold a SUM's totals).

Neither option ever compares keys for order — the CPU the baseline spends
in Table II's "Sorting" row simply does not exist on this path.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Callable, Sequence

from repro.core.aggregates import Aggregator
from repro.core.hash_tables import SLOT_BYTES, AccountedStateTable, SpilledState
from repro.io.serialization import estimate_sizes
from repro.mapreduce.counters import C, Counters
from repro.mapreduce.partition import KeyFacts

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
        counters: Counters | None = None,
    ) -> None:
        self._facts = KeyFacts(num_partitions, _PAIR_OVERHEAD)  # rejects num_partitions < 1
        self.num_partitions = num_partitions
        self.sink = sink
        self.buffer_bytes = buffer_bytes
        self.counters = counters if counters is not None else Counters()
        self._buffers: list[list[tuple[Any, Any]]] = [
            [] for _ in range(num_partitions)
        ]
        self._bytes = [0] * num_partitions

    def add(self, key: Any, value: Any) -> None:
        self.add_block(((key, value),))

    def add_block(
        self, pairs: Sequence[tuple[Any, Any]], ends: Sequence[int] | None = None
    ) -> None:
        """The collect loop: partition ``pairs``, flushing each full buffer.

        The flush threshold is checked after every pair, so chunk
        boundaries do not depend on how the stream is cut into blocks
        (nor on ``ends``, the input-record boundaries only HOP cuts on);
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
    """Option 2: in-memory hash aggregation (Hybrid Hash) in one task-wide table.

    The flush unit is the whole task (all partitions) because the memory
    budget is shared; each flush emits, per partition, ``(key,
    SpilledState)`` pairs that the reducer merges, so the algebra works
    for any aggregator (a SUM table emits ``(key, total)``).
    """

    def __init__(
        self,
        num_partitions: int,
        aggregator: Aggregator,
        sink: ChunkSink,
        *,
        memory_bytes: int = 8 * 1024 * 1024,
        counters: Counters | None = None,
    ) -> None:
        if memory_bytes <= 0:
            raise ValueError("memory_bytes must be positive")
        self.num_partitions = num_partitions
        self.sink = sink
        self.counters = counters if counters is not None else Counters()
        # One memo routes and sizes a key for the table's admission and the flush.
        self._facts = KeyFacts(num_partitions, SLOT_BYTES)  # rejects num_partitions < 1
        self._table = AccountedStateTable(aggregator, budget=memory_bytes, facts=self._facts)

    def add_block(
        self, pairs: Sequence[tuple[Any, Any]], ends: Sequence[int] | None = None
    ) -> None:
        """The collect loop: fold ``pairs`` through the table, which calls
        :meth:`flush` at the pair that fills the budget; ``ends`` is
        unused, as in :meth:`ScanPartitionBuffer.add_block`."""
        self._table.fold(pairs, self.flush)
        self.counters.inc(C.MAP_OUTPUT_RECORDS, len(pairs))

    add_batch = add_block  # the name the benchmark's probes call

    def flush(self) -> None:
        """Emit the partial states (a SUM table's totals) downstream, one
        chunk per partition in insertion order, and reset.  A chunk's
        bytes are its keys' share of the table's: key estimate, dict slot
        and state size."""
        table, facts = self._table, self._facts
        fixed, sums = table.fixed_bytes, table.sums
        chunks: list[list[tuple[Any, Any]]] = [[] for _ in range(self.num_partitions)]
        sizes = [0] * self.num_partitions
        for item in table.states.items():
            key, state = item
            t = type(key)
            partition, key_bytes = facts[key] if t is str or t is int else facts.of(key)
            chunks[partition].append(item if sums else (key, SpilledState(state)))
            sizes[partition] += key_bytes + (fixed or state.size_bytes())
        table.clear()
        for partition, pairs in enumerate(chunks):
            if pairs:
                self.sink(partition, pairs, sizes[partition])
                self.counters.inc(C.COMBINE_OUTPUT_RECORDS, len(pairs))

    def finish(self) -> None:
        self.flush()
