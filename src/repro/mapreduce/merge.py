"""Sorted-run merging: the heart of Hadoop's group-by (and its bottleneck).

Three pieces:

* :func:`merge_sorted` — streaming k-way merge of key-sorted pair streams
  read piece by piece, one stable sort per step;
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

import pickle
from bisect import bisect_left, bisect_right
from itertools import chain, groupby
from operator import itemgetter
from typing import Any, Iterable, Iterator

from repro.io.batch import merge_segments
from repro.io.disk import LocalDisk
from repro.io.runio import Framed, stream_frames, stream_pieces, write_run
from repro.mapreduce.counters import C, Counters
from repro.obs.tracer import NULL_TRACER, byte_cost

__all__ = ["merge_sorted", "pair_pieces", "group_sorted", "MultiPassMerger"]


_FIRST = itemgetter(0)
_SECOND = itemgetter(1)


def merge_sorted(
    streams: list[Iterable[tuple[list[Any], list[Any]]]],
    keys: list[Any] | None = None,
) -> Iterator[Any]:
    """K-way merge of sorted streams read in pieces; yields the items.

    A stream yields ``(keys, items)`` pieces (a run, one per accounted read:
    :func:`~repro.io.runio.stream_frames`); ``keys``, if given, receives the
    merged keys.  Order and piece reads are :func:`heapq.merge`'s on ``(key,
    stream index)``, which reads on right after emitting a stream's last
    buffered record.  A step takes each stream's last buffered record or,
    if sooner, its :data:`STEP_RECORDS`-th unemitted one, emits everything
    up to the first of those as one stable sort of the streams' prefixes,
    and reads on only if that was its stream's last (no other stream can
    run dry).  Items go out one at a time (``chain``), so reads interleave
    with the consumer's writes as under heapq.  Keys are compared with
    ``<`` alone; heapq tests ``==`` first, so NaN keys may order differently.
    """
    return chain.from_iterable(_merge_steps(streams, keys))


#: Most items one merge step takes from one stream.
STEP_RECORDS = 4096


def _merge_steps(
    streams: list[Iterable[tuple[list[Any], list[Any]]]], merged_keys: list[Any] | None
) -> Iterator[list[Any]]:
    # [stream index, pieces, buffered keys, buffered items, read offset].
    live: list[list[Any]] = []
    for index, stream in enumerate(streams):
        pieces = iter(stream)
        piece = next(filter(_FIRST, pieces), None)
        if piece is not None:
            live.append([index, pieces, *piece, 0])
    while live:
        first = min(live, key=lambda s: (s[2][min(s[4] + STEP_RECORDS, len(s[2])) - 1], s[0]))
        index, stop = first[0], min(first[4] + STEP_RECORDS, len(first[2]))
        pivot = first[2][stop - 1]
        keys: list[Any] = []
        items: list[Any] = []
        prefixes = 0
        for s in live:
            buf, start = s[2], s[4]
            if s is first:
                cut = stop
            elif s[0] < index:
                cut = bisect_right(buf, pivot, start)
            else:
                cut = bisect_left(buf, pivot, start)
            if cut > start:
                keys += buf[start:cut]
                items += s[3][start:cut]
                s[4] = cut
                prefixes += 1
        if prefixes > 1:
            # One stable sort of the prefixes, concatenated in stream order.
            order = sorted(range(len(keys)), key=keys.__getitem__)
            items = list(map(items.__getitem__, order))
            if merged_keys is not None:
                keys = list(map(keys.__getitem__, order))
            del order
        if merged_keys is not None:
            merged_keys += keys
        del keys  # not held while the consumer takes the step
        yield items
        if stop == len(first[2]):  # its last buffered record is out: read on
            piece = next(filter(_FIRST, first[1]), None)
            if piece is None:
                live.remove(first)
            else:
                first[2], first[3], first[4] = *piece, 0


def pair_pieces(pieces: Iterable[list[tuple[Any, Any]]]) -> Iterator[tuple[list[Any], list]]:
    """Pieces of decoded pairs as :func:`merge_sorted` pieces, keyed by pair key."""
    for pairs in pieces:
        yield list(map(_FIRST, pairs)), pairs


def group_sorted(pairs: Iterable[tuple[Any, Any]]) -> Iterator[tuple[Any, Iterator[Any]]]:
    """Group a key-sorted pair stream into ``(key, values)`` lazily.

    The values iterator for a group must be consumed before advancing to
    the next group (as with Hadoop's reduce iterator); values the consumer
    left unconsumed are skipped on advance.
    """
    for key, group in groupby(pairs, _FIRST):
        yield key, map(_SECOND, group)


class MultiPassMerger:
    """On-disk run pool with Hadoop's factor-``F`` background merge policy.

    Runs are added as they arrive from the shuffle (:meth:`add_run`); when
    the pool reaches ``F`` runs, the merger combines them into one larger
    run on disk (one *pass*), charging the read and write traffic to the
    supplied counters.  After the last run arrives, :meth:`final_merge`
    reduces the pool below ``F`` if needed and returns the single merged,
    sorted stream.

    Beside each run's ``(path, nbytes)`` it keeps the run's keys
    (:attr:`run_keys`), so a pass unpickles nothing and the final merge
    each record once; a run adopted without them is decoded for its keys.
    While :attr:`run_pairs` is a dict it also keeps each run's decoded pairs
    (for HOP's snapshots), and a pass merges them as it merges the frames.
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
        self.run_keys: dict[str, list[Any]] = {}  # path -> the run's keys, in order
        self.run_pairs: dict[str, list[tuple[Any, Any]]] | None = None  # path -> its pairs
        self._seq = 0
        self.finished = False

    @property
    def run_count(self) -> int:
        return len(self._runs)

    def export_state(self) -> tuple[list[tuple[str, int]], int]:
        """Snapshot ``(runs, next sequence number)`` for a worker-side task."""
        return list(self._runs), self._seq

    def adopt_state(
        self,
        state: tuple[list[tuple[str, int]], int],
        keys: dict[str, list[Any]] | None = None,
    ) -> None:
        """Install state exported by :meth:`export_state` (fresh merger only),
        with the runs' :attr:`run_keys` when the caller has them."""
        if self.finished or self._runs:
            raise RuntimeError("can only adopt state into a fresh merger")
        runs, seq = state
        self._runs = list(runs)
        self.run_keys = dict(keys or {})
        self._seq = seq

    def _new_path(self, tag: str) -> str:
        path = f"{self.namespace}/run-{self._seq:05d}.{tag}"
        self._seq += 1
        return path

    def add_run(self, pairs: Iterable[tuple[Any, Any]] | Framed) -> None:
        """Write one sorted run to disk and trigger background merges.

        ``pairs`` are pickled and their keys noted (a list of them is also
        held while :attr:`run_pairs` is); a :class:`~repro.io.runio.Framed`
        stream is written as it is, and its keys kept.

        Merging the F smallest runs whenever the pool reaches ``2F - 1``
        (Hadoop's actual policy) leaves F - 1 runs behind and, crucially,
        avoids re-merging already-merged large runs on every trigger —
        the rewrite volume stays roughly linear in the data instead of
        quadratic.
        """
        if self.finished:
            raise RuntimeError("merger already finalised")
        path = self._new_path("in")
        keys = pairs.keys if isinstance(pairs, Framed) else []
        nbytes = write_run(self.disk, path, pairs, keys)
        self.run_keys[path] = keys
        if self.run_pairs is not None and isinstance(pairs, list):
            self.run_pairs[path] = pairs
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
            # A pass only moves records: order them by the kept keys, keep
            # their frames, note the merged order's keys for the next pass.
            kept = self.run_keys
            streams = [stream_frames(self.disk, path, kept.pop(path, None)) for path, _ in victims]
            out_path = self._new_path("merged")
            kept[out_path] = keys = []
            out_bytes = write_run(self.disk, out_path, Framed(merge_sorted(streams, keys), keys))
            if (held := self.run_pairs) is not None:  # in victim order, as the frames
                held[out_path] = merge_segments([held.pop(path) for path, _ in victims])
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
        runs, kept, self.run_keys = self._runs, self.run_keys, {}
        if all(path in kept for path, _ in runs):
            # Frames ordered by the kept keys; each is unpickled, once, as
            # the reduce side takes it, so decoded pairs do not pile up.
            streams = [stream_frames(self.disk, path, kept[path], payloads=True) for path, _ in runs]
            return map(pickle.loads, merge_sorted(streams))
        # Runs adopted without their keys: each piece is decoded for them.
        return merge_sorted([pair_pieces(stream_pieces(self.disk, path)) for path, _ in runs])

    def cleanup(self) -> None:
        """Delete any remaining run files."""
        for path, _ in self._runs:
            if self.disk.exists(path):
                self.disk.delete(path)
        self._runs.clear()
