"""Sorted-run merging: the heart of Hadoop's group-by (and its bottleneck).

Three pieces:

* :func:`merge_sorted` — streaming k-way merge of sorted ``(key, value)``
  iterators via a heap;
* :func:`group_sorted` — turn a key-sorted pair stream into
  ``(key, values-iterator)`` groups for the reduce function;
* :class:`MultiPassMerger` — the paper's *multi-pass merge*: whenever the
  number of on-disk runs reaches the merge factor ``F``, merge them into
  one larger run and write it back to disk.  Every pass re-reads and
  re-writes data, which is how the sessionization workload ends up with
  370 GB of reduce-side spill for 256 GB of input (Table I).

The multi-pass merge is *blocking*: :meth:`MultiPassMerger.final_merge`
cannot produce a single sorted stream until every run has arrived.
"""

from __future__ import annotations

import heapq
from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator

from repro.io.disk import LocalDisk
from repro.io.runio import Framed, stream_frames, stream_run, write_run
from repro.mapreduce.counters import C, Counters
from repro.obs.tracer import NULL_TRACER, byte_cost

__all__ = ["merge_sorted", "group_sorted", "MultiPassMerger"]


_FIRST = itemgetter(0)


def merge_sorted(
    streams: list[Iterator[tuple[Any, Any]]],
    *,
    key: Callable[[tuple[Any, Any]], Any] | None = None,
) -> Iterator[tuple[Any, Any]]:
    """K-way merge of pair streams, each already sorted by pair key.

    Ties are broken by stream index, making the merge stable with respect
    to stream order (Hadoop gives the same guarantee via segment order).
    Implemented on :func:`heapq.merge`, whose C-accelerated heap carries a
    stream-order tiebreaker internally — the same ordering guarantee as
    the hand-rolled heap it replaces, without a Python-level comparison
    per record (values are never compared).
    """
    return heapq.merge(*streams, key=key or _FIRST)


_SENTINEL = object()


def group_sorted(pairs: Iterable[tuple[Any, Any]]) -> Iterator[tuple[Any, Iterator[Any]]]:
    """Group a key-sorted pair stream into ``(key, values)`` lazily.

    The values iterator for a group must be consumed before advancing to
    the next group (as with Hadoop's reduce iterator).  Unconsumed values
    are drained automatically on advance.
    """
    it = iter(pairs)
    first = next(it, _SENTINEL)
    if first is _SENTINEL:
        return

    current_key = first[0]
    pushback: list[tuple[Any, Any]] = [first]
    exhausted = False

    def values_for(key: Any) -> Iterator[Any]:
        nonlocal exhausted
        while True:
            if pushback:
                k, v = pushback.pop()
            else:
                nxt = next(it, _SENTINEL)
                if nxt is _SENTINEL:
                    exhausted = True
                    return
                k, v = nxt
            if k != key:
                pushback.append((k, v))
                return
            yield v

    while True:
        group = values_for(current_key)
        yield current_key, group
        # Drain whatever the consumer left behind.
        for _ in group:
            pass
        if exhausted:
            return
        if pushback:
            current_key = pushback[-1][0]
        else:
            nxt = next(it, _SENTINEL)
            if nxt is _SENTINEL:
                return
            pushback.append(nxt)
            current_key = nxt[0]


class MultiPassMerger:
    """On-disk run pool with Hadoop's factor-``F`` background merge policy.

    Runs are added as they arrive from the shuffle (:meth:`add_run`); when
    the pool reaches ``F`` runs, the merger combines them into one larger
    run on disk (one *pass*), charging the read and write traffic to the
    supplied counters.  After the last run arrives, :meth:`final_merge`
    reduces the pool below ``F`` if needed and returns the single merged,
    sorted stream.
    """

    def __init__(
        self,
        disk: LocalDisk,
        namespace: str,
        *,
        factor: int,
        counters: Counters | None = None,
        tracer: Any = NULL_TRACER,
        node: str = "",
        task: str = "",
    ) -> None:
        if factor < 2:
            raise ValueError("merge factor must be >= 2")
        self.disk = disk
        self.namespace = namespace.rstrip("/")
        self.factor = factor
        self.counters = counters if counters is not None else Counters()
        self.tracer = tracer
        self.node = node
        self.task = task
        self._runs: list[tuple[str, int]] = []  # (path, nbytes), insertion order
        self._seq = 0
        self.finished = False

    @property
    def run_count(self) -> int:
        return len(self._runs)

    @property
    def on_disk_bytes(self) -> int:
        return sum(nbytes for _, nbytes in self._runs)

    @property
    def run_paths(self) -> list[tuple[str, int]]:
        """Current on-disk runs as ``(path, nbytes)`` (non-destructive view).

        MapReduce Online's snapshot mechanism re-reads these runs to build a
        periodic early answer without finalising the merge.
        """
        return list(self._runs)

    def export_state(self) -> tuple[list[tuple[str, int]], int]:
        """Snapshot ``(runs, next sequence number)`` for a worker-side task."""
        return list(self._runs), self._seq

    def adopt_state(self, state: tuple[list[tuple[str, int]], int]) -> None:
        """Install state exported by :meth:`export_state` (fresh merger only)."""
        if self.finished or self._runs:
            raise RuntimeError("can only adopt state into a fresh merger")
        runs, seq = state
        self._runs = list(runs)
        self._seq = seq

    def _new_path(self, tag: str) -> str:
        path = f"{self.namespace}/run-{self._seq:05d}.{tag}"
        self._seq += 1
        return path

    def add_run(self, pairs: Iterable[tuple[Any, Any]] | Framed) -> None:
        """Write one sorted run to disk and trigger background merges.

        ``pairs`` are pickled; a :class:`~repro.io.runio.Framed` stream of
        records that already carry their frames is written as it is.

        Merging the F smallest runs whenever the pool reaches ``2F - 1``
        (Hadoop's actual policy) leaves F - 1 runs behind and, crucially,
        avoids re-merging already-merged large runs on every trigger —
        the rewrite volume stays roughly linear in the data instead of
        quadratic.
        """
        if self.finished:
            raise RuntimeError("merger already finalised")
        path = self._new_path("in")
        nbytes = write_run(self.disk, path, pairs)
        self.counters.inc(C.REDUCE_SPILL_BYTES, nbytes)
        self.counters.inc(C.REDUCE_SPILLS)
        self._runs.append((path, nbytes))
        while len(self._runs) >= 2 * self.factor - 1:
            self._merge_pass(self.factor)

    def _merge_pass(self, fan_in: int) -> None:
        """Merge the ``fan_in`` smallest runs into one (one pass)."""
        fan_in = min(fan_in, len(self._runs))
        if fan_in < 2:
            return
        # Hadoop merges the smallest runs first to bound rewrite volume.
        self._runs.sort(key=itemgetter(1))
        victims, self._runs = self._runs[:fan_in], self._runs[fan_in:]
        read_bytes = sum(nbytes for _, nbytes in victims)
        with self.tracer.span(
            "merge", "merge", node=self.node, task=self.task, fan_in=fan_in
        ) as merge_span:
            # A pass only moves records: order them by key, keep their frames.
            merged = Framed(
                merge_sorted([stream_frames(self.disk, path) for path, _ in victims])
            )
            out_path = self._new_path("merged")
            out_bytes = write_run(self.disk, out_path, merged)
            merge_span.set(bytes_in=read_bytes, bytes_out=out_bytes)
            merge_span.set_cost(byte_cost(read_bytes + out_bytes))
        for path, _ in victims:
            self.disk.delete(path)
        self._runs.append((out_path, out_bytes))
        self.counters.inc(C.MERGE_PASSES)
        self.counters.inc(C.MERGE_READ_BYTES, read_bytes)
        self.counters.inc(C.MERGE_WRITE_BYTES, out_bytes)

    def final_merge(self) -> Iterator[tuple[Any, Any]]:
        """Blocking step: bring the pool under F, then stream the result.

        The returned iterator performs the last merge on the fly (Hadoop
        feeds this stream directly into the reduce function).
        """
        if self.finished:
            raise RuntimeError("merger already finalised")
        self.finished = True
        while len(self._runs) > self.factor:
            self._merge_pass(self.factor)
        read_bytes = sum(nbytes for _, nbytes in self._runs)
        self.counters.inc(C.MERGE_READ_BYTES, read_bytes)
        streams = [stream_run(self.disk, path) for path, _ in self._runs]
        return merge_sorted(streams)

    def cleanup(self) -> None:
        """Delete any remaining run files."""
        for path, _ in self._runs:
            if self.disk.exists(path):
                self.disk.delete(path)
        self._runs.clear()
