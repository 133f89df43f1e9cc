"""Columnar record batches and the plain-list bucket kernels.

Moving map output through Python as one ``(key, value)`` tuple per
record makes every sort, fanout and merge pay per-tuple dispatch.  This
module provides the alternatives:

* :class:`RecordBatch` stores *n* pairs column-wise — keys as a decoded
  list (they drive partitioning, sorting and grouping), values as
  length-prefixed pickle frames packed into one shared buffer.  Row
  selection (:meth:`RecordBatch.select`), stable key sorting and
  partition fanout reorder the offset column only; value payloads are
  handed out as zero-copy :class:`memoryview` slices and are never
  unpickled or copied until someone actually looks at them.
* The batch wire format extends the PR 2 framing
  (:func:`repro.io.serialization.encode_frames` /
  :func:`~repro.io.serialization.iter_frames`): a batch is a ``<I``
  key-section length, the key column as standard frames, then the value
  column as standard frames.  :meth:`RecordBatch.decode` reads the key
  column and only *scans* the value frame headers — the payload bytes
  stay in the encoded buffer, sliced lazily.
* Plain-list helpers (:func:`sort_bucket`, :func:`merge_segments`)
  implement the per-bucket stable sort and the concat-and-stable-sort
  merge the sort-merge engines use on in-memory pairs.  Their orderings
  equal a global stable ``(partition, key)`` sort and a k-way merge that
  breaks ties by stream order (the tests keep both as their oracles).

The module lives in ``repro.io`` beside the framing it extends
(``serialization.py``); it stays import-light so the kernel-transitive
modules (sortmerge, hop, the one-pass map/reduce substrates) can use it
without pulling coordinator machinery into kernel scope.

Everything here is kernel-pure (REP002): no globals, no filesystem, no
coordinator state.  All classes carry ``__slots__`` (REP007 — this module
is listed in the hot-path registry in ``docs/PERFORMANCE.md``).
"""

from __future__ import annotations

import pickle
import struct
from array import array
from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator

from repro.io.serialization import iter_frames

__all__ = [
    "RecordBatch",
    "sort_bucket",
    "merge_segments",
]

_LEN = struct.Struct("<I")
_FIRST = itemgetter(0)


class RecordBatch:
    """A columnar batch of ``(key, value)`` pairs.

    ``keys`` is an ordinary list.  Values live as pickle payloads inside
    ``_values`` (a :class:`memoryview` over the frame section of the
    encoded buffer); ``_offsets[i]``/``_lengths[i]`` locate row *i*'s
    payload.  Row-reordering operations share the buffer between the
    source and result batches — a fanout of a 64 KB batch into 8
    partitions allocates 8 small offset arrays and zero value bytes.

    No engine path reads or writes the columnar wire format, on purpose:
    run files, spills and shuffle segments keep the pair framing, and
    switching them would change every accounted byte.  The class stays
    importable for the ``benchmarks/e2e`` probes, which time it.
    """

    __slots__ = ("keys", "_values", "_offsets", "_lengths")

    def __init__(
        self,
        keys: list[Any],
        values: memoryview,
        offsets: array,
        lengths: array,
    ) -> None:
        self.keys = keys
        self._values = values
        self._offsets = offsets
        self._lengths = lengths

    # -- construction -------------------------------------------------------

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[Any, Any]]) -> "RecordBatch":
        """Build a batch from decoded pairs, encoding the value column."""
        keys: list[Any] = []
        buf = bytearray()
        offsets = array("Q")
        lengths = array("I")
        pack = _LEN.pack
        dumps = pickle.dumps
        proto = pickle.HIGHEST_PROTOCOL
        for key, value in pairs:
            keys.append(key)
            payload = dumps(value, protocol=proto)
            buf += pack(len(payload))
            offsets.append(len(buf))
            lengths.append(len(payload))
            buf += payload
        # bytes() freezes the buffer: exported memoryviews can never hit a
        # BufferError from a later resize, even after the batch is spilled
        # and released.
        return cls(keys, memoryview(bytes(buf)), offsets, lengths)

    @classmethod
    def decode(cls, data: bytes | bytearray | memoryview) -> "RecordBatch":
        """Decode the batch wire format; value payloads stay zero-copy.

        The key column is unpickled (keys are compared, hashed and
        partitioned); the value column is only header-scanned — payload
        bytes remain in ``data``, referenced by the returned batch.
        """
        view = memoryview(data)
        if len(view) < _LEN.size:
            raise ValueError("truncated batch header")
        (key_len,) = _LEN.unpack_from(view, 0)
        body = view[_LEN.size :]
        if key_len > len(body):
            raise ValueError("truncated batch key section")
        keys = list(iter_frames(body[:key_len]))
        values = body[key_len:]
        offsets = array("Q")
        lengths = array("I")
        unpack_from = _LEN.unpack_from
        header = _LEN.size
        offset = 0
        end = len(values)
        while offset < end:
            if offset + header > end:
                raise ValueError("truncated value frame header")
            (length,) = unpack_from(values, offset)
            offset += header
            if offset + length > end:
                raise ValueError("truncated value frame payload")
            offsets.append(offset)
            lengths.append(length)
            offset += length
        if len(offsets) != len(keys):
            raise ValueError(
                f"batch has {len(keys)} keys but {len(offsets)} values"
            )
        return cls(keys, values, offsets, lengths)

    # -- introspection ------------------------------------------------------

    def __len__(self) -> int:
        return len(self.keys)

    @property
    def value_bytes(self) -> int:
        """Total value payload bytes (excluding frame headers)."""
        return sum(self._lengths)

    def value_view(self, i: int) -> memoryview:
        """Zero-copy view of row *i*'s pickled value payload."""
        offset = self._offsets[i]
        return self._values[offset : offset + self._lengths[i]]

    def value_at(self, i: int) -> Any:
        return pickle.loads(self.value_view(i))

    def pair_at(self, i: int) -> tuple[Any, Any]:
        return self.keys[i], self.value_at(i)

    def iter_pairs(self) -> Iterator[tuple[Any, Any]]:
        loads = pickle.loads
        values = self._values
        lengths = self._lengths
        for key, offset, length in zip(self.keys, self._offsets, lengths):
            yield key, loads(values[offset : offset + length])

    def to_pairs(self) -> list[tuple[Any, Any]]:
        return list(self.iter_pairs())

    # -- row reordering (shared-buffer, zero value copies) ------------------

    def select(self, indices: Iterable[int]) -> "RecordBatch":
        """A new batch of the given rows, sharing this batch's buffer."""
        keys = self.keys
        src_off = self._offsets
        src_len = self._lengths
        out_keys: list[Any] = []
        offsets = array("Q")
        lengths = array("I")
        for i in indices:
            out_keys.append(keys[i])
            offsets.append(src_off[i])
            lengths.append(src_len[i])
        return RecordBatch(out_keys, self._values, offsets, lengths)

    def sorted_by_key(self) -> "RecordBatch":
        """Rows stably sorted by key; equal keys keep batch order."""
        keys = self.keys
        order = sorted(range(len(keys)), key=keys.__getitem__)
        return self.select(order)

    def fanout(
        self, partitioner: Callable[[Any, int], int], num_partitions: int
    ) -> list["RecordBatch"]:
        """Split rows by partition, preserving batch order within each.

        All returned batches share this batch's value buffer.
        """
        index_buckets: list[array] = [array("Q") for _ in range(num_partitions)]
        appends = [b.append for b in index_buckets]
        for i, key in enumerate(self.keys):
            appends[partitioner(key, num_partitions)](i)
        return [self.select(bucket) for bucket in index_buckets]

    # -- encoding -----------------------------------------------------------

    def encode(self) -> bytes:
        """Serialize in the columnar batch wire format.

        Layout: ``<I`` key-section byte length, the key column as
        standard length-prefixed pickle frames, then the value column as
        standard frames.  ``decode(encode())`` round-trips exactly.
        """
        buf = bytearray()
        pack = _LEN.pack
        dumps = pickle.dumps
        proto = pickle.HIGHEST_PROTOCOL
        for key in self.keys:
            payload = dumps(key, protocol=proto)
            buf += pack(len(payload))
            buf += payload
        out = bytearray(pack(len(buf)))
        out += buf
        values = self._values
        for offset, length in zip(self._offsets, self._lengths):
            out += pack(length)
            out += values[offset : offset + length]
        return bytes(out)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"RecordBatch(n={len(self.keys)}, value_bytes={self.value_bytes})"


# -- plain-list helpers (the sort-merge engines' kernels) ----------------------


def sort_bucket(bucket: list[tuple[Any, Any]]) -> list[tuple[Any, Any]]:
    """Stable in-place key sort of one fanout bucket; returns the bucket.

    Equal keys keep arrival order (``list.sort`` is stable), so the
    concatenation of sorted buckets in ascending partition order is the
    record sequence of one stable sort on the compound ``(partition, key)``.
    """
    bucket.sort(key=_FIRST)
    return bucket


def merge_segments(
    segments: Iterable[Iterable[tuple[Any, Any]]]
) -> list[tuple[Any, Any]]:
    """Merge key-sorted segments: concatenate in stream order, stable sort.

    The order of a k-way merge that breaks ties by stream index: the
    earlier stream's records precede the later's in the concatenation,
    which a stable sort preserves — one galloping Timsort.
    """
    out: list[tuple[Any, Any]] = []
    for seg in segments:
        out.extend(seg)
    out.sort(key=_FIRST)
    return out
