"""Incremental hash: technique (2) of the paper's reduce module.

"To support incremental computation and reduce I/Os when a combine function
is available, we further implement an incremental hash technique, which
maintains a state for each key, and updates it incrementally."

:class:`IncrementalHash` keeps one :class:`~repro.core.aggregates.AggregateState`
per key and folds every arriving pair immediately — the reduce function is
effectively "applied to all groups simultaneously".  Two consequences the
paper calls out, both implemented here:

* **Fully incremental output** — an *emit policy* inspects a key's
  running result after each update and can release the answer as soon as
  it is determined (the paper's example: emit a group once its count exceeds a
  threshold).  No merge phase ever blocks it.
* **In-memory processing whenever states fit** — when they do not, the
  plain technique must shed load; here, cold (non-resident) keys overflow
  into a :class:`~repro.core.hybrid_hash.HybridHashGrouper`, preserving
  exactness at the cost of blocking for those keys.  The hot-key variant
  (:mod:`repro.core.hotset`) is the paper's smarter answer.
"""

from __future__ import annotations

import pickle
from typing import Any, Callable, Iterator, Sequence

from repro.core.aggregates import Aggregator
from repro.core.hash_tables import AccountedStateTable, SpilledState
from repro.core.hybrid_hash import HybridHashGrouper
from repro.io.disk import LocalDisk
from repro.mapreduce.counters import C, Counters

__all__ = ["IncrementalHash", "EmitPolicy", "count_threshold_policy"]

#: ``policy(key, result)``, ``result`` being the key's running answer.
EmitPolicy = Callable[[Any, Any], bool]


def count_threshold_policy(threshold: int) -> EmitPolicy:
    """Emit a key as soon as its count-like result reaches ``threshold``.

    Works with any aggregate whose result is an integer count — the
    paper's motivating incremental query ("return all the groups where the
    count of items exceeds a threshold").
    """
    if threshold < 1:
        raise ValueError("threshold must be >= 1")

    def policy(_key: Any, result: Any) -> bool:
        return result >= threshold

    return policy


class IncrementalHash:
    """Per-key aggregate states, updated as data arrives.

    Parameters
    ----------
    aggregator:
        The per-key state factory (must come from the job's combine
        function algebra).
    memory_bytes:
        Budget for resident states; ``None`` means unbounded (pure
        in-memory processing).
    disk, namespace:
        Overflow destination; required when ``memory_bytes`` is set.
    emit_policy:
        Optional predicate over ``(key, result)``; the first time it holds
        for a key, ``(key, result)`` is appended to :attr:`early_emitted`.
    """

    __slots__ = (
        "aggregator",
        "memory_bytes",
        "disk",
        "namespace",
        "emit_policy",
        "counters",
        "_table",
        "_emitted",
        "early_emitted",
        "_overflow",
        "_finished",
        "updates",
    )

    def __init__(
        self,
        aggregator: Aggregator,
        *,
        memory_bytes: int | None = None,
        disk: LocalDisk | None = None,
        namespace: str = "inchash",
        emit_policy: EmitPolicy | None = None,
        counters: Counters | None = None,
    ) -> None:
        if memory_bytes is not None:
            if memory_bytes <= 0:
                raise ValueError("memory_bytes must be positive")
            if disk is None:
                raise ValueError("a disk is required when memory is bounded")
        self.aggregator = aggregator
        self.memory_bytes = memory_bytes
        self.disk = disk
        self.namespace = namespace
        self.emit_policy = emit_policy
        self.counters = counters if counters is not None else Counters()
        self._table = AccountedStateTable(aggregator, budget=memory_bytes)
        self._emitted: set[Any] = set()
        self.early_emitted: list[tuple[Any, Any]] = []
        self._overflow: HybridHashGrouper | None = None
        self._finished = False
        self.updates = 0

    # -- ingestion -----------------------------------------------------------

    @property
    def resident_keys(self) -> int:
        return len(self._table)

    @property
    def overflowed(self) -> bool:
        return self._overflow is not None

    @property
    def used_bytes(self) -> int:
        return self._table.used_bytes

    @property
    def spilled_records(self) -> int:
        """Pairs the overflow grouper has spilled to disk so far."""
        return self._overflow.spilled_records if self._overflow is not None else 0

    def update(self, key: Any, value: Any) -> None:
        """Fold one pair: :meth:`update_batch` of one."""
        self.update_batch(((key, value),))

    def update_batch(self, pairs: Sequence[tuple[Any, Any]]) -> None:
        """Fold pairs in order; may trigger early emissions.

        The table checks the budget after every pair, so the freeze lands
        on the same pair however the stream is cut.  Once frozen the
        resident key set never changes and the overflow grouper shares
        nothing with it, so a batch's misses reach it in one call.  With an
        emit policy each pair is its own fold, so the policy sees the result
        every pair leaves and a freeze follows the pair's emission.
        """
        if self._finished:
            raise RuntimeError("incremental hash already finished")
        table = self._table
        if self.emit_policy is None:
            misses = table.fold(pairs)
        else:
            misses = []
            emitted = self._emitted
            for pair in pairs:
                missed = table.fold((pair,))
                misses += missed
                if not missed and pair[0] not in emitted:
                    self._maybe_emit(pair[0])
                if table.frozen and self._overflow is None:
                    self._freeze()
        if table.frozen and self._overflow is None:
            self._freeze()
        if misses:
            self._overflow.add_batch(misses)  # type: ignore[union-attr]
        self.updates += len(pairs)

    def _freeze(self) -> None:
        """Stop admitting new keys; overflow them to hybrid hash on disk."""
        assert self.disk is not None and self.memory_bytes is not None
        self.counters.set_max(C.HASH_STATE_BYTES_PEAK, self._table.frozen_bytes)
        self._overflow = HybridHashGrouper(
            self.disk,
            f"{self.namespace}/overflow",
            self.memory_bytes,
            aggregator=self.aggregator,
            counters=self.counters,
        )

    def _maybe_emit(self, key: Any) -> None:
        """Ask the policy about resident ``key``, not yet emitted."""
        table, state = self._table, self._table.states[key]
        result = state if table.sums else state.result()
        if self.emit_policy(key, result):  # type: ignore[misc]
            self._emitted.add(key)
            self.early_emitted.append((key, result))
            self.counters.inc(C.EARLY_EMITS)

    # -- checkpointing -----------------------------------------------------------

    def checkpoint_payload(self) -> bytes | None:
        """Serialize the complete in-memory state for durable checkpointing.

        Returns ``None`` when the state is not checkpointable: after keys
        have overflowed to disk (the overflow partitions live outside this
        object) or once finished.  The payload round-trips through
        :meth:`restore_payload`.
        """
        if self._overflow is not None or self._finished:
            return None
        snapshot = (
            list(self._table.items()),
            set(self._emitted),
            list(self.early_emitted),
            self.updates,
        )
        return pickle.dumps(snapshot, protocol=pickle.HIGHEST_PROTOCOL)

    def restore_payload(self, payload: bytes) -> None:
        """Replace all state with a checkpoint snapshot (recovery path).

        States are folded into a fresh table via direct merges, bypassing
        the emit policy: keys that emitted before the checkpoint are in
        the restored ``early_emitted`` list and must not emit again when
        the post-checkpoint log suffix replays.
        """
        if self._finished:
            raise RuntimeError("incremental hash already finished")
        states, emitted, early, updates = pickle.loads(payload)
        table = self._table = AccountedStateTable(self.aggregator, budget=self.memory_bytes)
        table.fold(states if table.sums else [(key, SpilledState(s)) for key, s in states])
        self._emitted = set(emitted)
        self.early_emitted = list(early)
        self.updates = updates
        self._overflow = None

    # -- finalisation ------------------------------------------------------------

    def results(self) -> Iterator[tuple[Any, Any]]:
        """Final answers for all keys (resident first, then overflow)."""
        if self._finished:
            raise RuntimeError("incremental hash already finished")
        self._finished = True
        self.counters.set_max(C.HASH_STATE_BYTES_PEAK, self._table.used_bytes)
        self.counters.inc(C.HASH_PROBES, self._table.probes)
        yield from self._table.results()
        if self._overflow is not None:
            yield from self._overflow.finish()
