"""Reading and writing runs of key-value pairs on a :class:`LocalDisk`.

A *run* is a file of framed ``(key, value)`` pairs.  Sort-merge writes runs
in key order; hash techniques write unordered partitions.  The same framing
is used for both, so readers can stream either.

Writers buffer frames and flush in large chunks to keep the accounted
operation counts realistic (one disk op per flush, not per record).

**Frames travel with unchanged records, keys beside them.**  A record is
pickled once, when it is first written, and unpickled once, in front of
the reduce function.  In between, whoever only moves it carries its frame
(length prefix + payload, as it sits in the file) and, in a parallel list,
the key it sorts by: a fetch hands on the map task's keys with the bytes
(:class:`KeyedRun`), :func:`stream_frames` reads a run's frames in
accounted pieces under its writer's keys, and :func:`write_run` joins the
frames of a :class:`Framed` stream.  Only a stage that makes new pairs (a
combiner) pickles again.  Re-pickling a decoded pair yields its frame
again for every value the workloads emit; the known exception is a
``set``/``frozenset`` value, whose re-pickle has the same length but may
order the elements differently.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from itertools import chain, islice, pairwise
from operator import itemgetter
from typing import Any, Iterable, Iterator, Sequence

from repro.io.disk import LocalDisk
from repro.io.serialization import FRAME_HEADER, encode_each, encode_frames, frame_bounds
from repro.io.serialization import iter_frames

__all__ = [
    "Framed",
    "KeyedRun",
    "RunWriter",
    "frame_records",
    "reread_run",
    "run_chunks",
    "segment_pairs",
    "stream_frames",
    "stream_pieces",
    "stream_run",
    "write_chunks",
    "write_run",
]

_DEFAULT_FLUSH = 4 * 1024 * 1024
#: Records per appended chunk: :class:`RunWriter` charges 64 bytes a record.
_FLUSH_RECORDS = _DEFAULT_FLUSH // 64

_KEY = itemgetter(0)


class RunWriter:
    """Buffered writer of framed pairs to one file on a :class:`LocalDisk`.

    The incremental writer of the hash techniques' spill partitions, which
    receive one record at a time; whole runs go through :func:`write_run`.
    """

    __slots__ = (
        "disk",
        "path",
        "flush_bytes",
        "_pending",
        "_pending_bytes",
        "records_written",
        "bytes_written",
        "_closed",
    )

    def __init__(
        self,
        disk: LocalDisk,
        path: str,
        *,
        flush_bytes: int = _DEFAULT_FLUSH,
    ) -> None:
        self.disk = disk
        self.path = path
        self.flush_bytes = flush_bytes
        self._pending: list[Any] = []
        self._pending_bytes = 0
        self.records_written = 0
        self.bytes_written = 0
        self._closed = False
        disk.create(path, overwrite=True)

    def write(self, item: Any) -> None:
        if self._closed:
            raise ValueError(f"writer for {self.path} is closed")
        self._pending.append(item)
        # A cheap length proxy; exact framing happens at flush time.
        self._pending_bytes += 64
        self.records_written += 1
        if self._pending_bytes >= self.flush_bytes:
            self._flush()

    def write_all(self, items: Iterable[Any]) -> None:
        for item in items:
            self.write(item)

    def _flush(self) -> None:
        if not self._pending:
            return
        chunk = encode_frames(self._pending)
        self.disk.append(self.path, chunk)
        self.bytes_written += len(chunk)
        self._pending.clear()
        self._pending_bytes = 0

    def close(self) -> None:
        if not self._closed:
            self._flush()
            self._closed = True

    def __enter__(self) -> "RunWriter":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


@dataclass(frozen=True, slots=True)
class KeyedRun:
    """A sorted run held in memory, as a fetch hands it on: the frames as
    the map task wrote them and the key of each, in order."""

    data: bytes
    keys: list[Any]


class Framed:
    """Marks ``frames`` as frames, written by joining them, and names their
    ``keys``: a list that holds the frames' keys, in order, once the frames
    are exhausted (a merge fills it as it goes)."""

    __slots__ = ("frames", "keys")

    def __init__(self, frames: Iterable[bytes], keys: list[Any]) -> None:
        self.frames = frames
        self.keys = keys


class _Frames:
    """A piece's frames (past ``skip`` bytes of each), cut from its buffer
    only when sliced: a merge emits a prefix of a buffered piece at a time."""

    __slots__ = ("buf", "bounds", "skip")

    def __init__(self, buf: bytes, bounds: list[int], skip: int = 0) -> None:
        self.buf = buf
        self.bounds = bounds
        self.skip = skip

    def __len__(self) -> int:
        return len(self.bounds) - 1

    def __getitem__(self, part: slice) -> list[bytes]:
        start, stop, _ = part.indices(len(self))
        buf, skip = self.buf, self.skip
        return [buf[a + skip : b] for a, b in pairwise(self.bounds[start : stop + 1])]


def segment_pairs(segment: KeyedRun | list[tuple[Any, Any]]) -> list[tuple[Any, Any]]:
    """The decoded pairs of an in-memory segment (a plain list is its own)."""
    return list(iter_frames(segment.data)) if isinstance(segment, KeyedRun) else segment


def frame_records(segment: KeyedRun | list[tuple[Any, Any]]) -> tuple[list[Any], Sequence[bytes]]:
    """``segment`` as ``(keys, frames)``: one piece for a merge of frames.

    A :class:`KeyedRun` gives up the frames and keys it carries; plain
    pairs (pushed objects, a caller's own list) are encoded here, once.
    """
    if not isinstance(segment, KeyedRun):
        return list(map(_KEY, segment)), encode_each(segment)
    data, keys = segment.data, segment.keys
    bounds = frame_bounds(data)
    if len(bounds) - 1 != len(keys) or bounds[-1] != len(data):
        raise ValueError(f"{len(keys)} keys do not match their {len(bounds) - 1} frames")
    return keys, _Frames(data, bounds)


def run_chunks(items: Iterable[Any], keys: list[Any] | None = None) -> Iterator[bytes]:
    """The chunks a run of ``items`` is appended in, one per 65 536 records.

    Plain items are pickled, and each pair's key is appended to ``keys``
    when given; the frames of a :class:`Framed` stream are joined as they
    are (its keys are its own).  Lazy: a streaming merge stays streaming.
    """
    framed = isinstance(items, Framed)
    it = iter(items.frames if framed else items)
    while batch := list(islice(it, _FLUSH_RECORDS)):
        if framed:
            yield b"".join(batch)
            continue
        if keys is not None:
            keys += _shared(map(_KEY, batch))
        yield encode_frames(batch)


def _shared(keys: Iterable[Any]) -> list[Any]:
    """``keys`` with equal ones made one object, so a kept key costs a
    pointer beyond the distinct keys (unhashable keys stay as they are)."""
    keys = list(keys)
    memo: dict[Any, Any] = {}
    try:
        return list(map(memo.setdefault, keys, keys))
    except TypeError:
        return keys


def write_chunks(disk: LocalDisk, path: str, chunks: Iterable[bytes]) -> int:
    """Create ``path`` and append each chunk; return the bytes written."""
    disk.create(path, overwrite=True)
    nbytes = 0
    for chunk in chunks:
        disk.append(path, chunk)
        nbytes += len(chunk)
    return nbytes


def write_run(
    disk: LocalDisk, path: str, items: Iterable[Any], keys: list[Any] | None = None
) -> int:
    """Write ``items`` as a run at ``path``; return the byte size written.
    Plain pairs' keys are appended to ``keys`` when given."""
    return write_chunks(disk, path, run_chunks(items, keys))


def _frame_chunks(
    disk: LocalDisk, path: str, chunk_size: int
) -> Iterator[tuple[bytes, list[int]]]:
    """Read ``path`` in accounted ``chunk_size`` pieces, cut at frame ends.

    Yields ``(buffer, bounds)`` per piece read (see
    :func:`~repro.io.serialization.frame_bounds`).  A frame that straddles
    a piece boundary is carried into the next buffer.
    """
    tail = b""
    for chunk in disk.stream(path, chunk_size):
        buf = tail + chunk if tail else chunk
        bounds = frame_bounds(buf)
        tail = buf[bounds[-1] :]
        yield buf, bounds
    if tail:
        raise ValueError(f"truncated trailing frame in {path}")


def reread_run(disk: LocalDisk, path: str, records: int, chunk_size: int = 1 << 20) -> None:
    """Re-read a run whose ``records`` pairs the caller holds, in accounted
    pieces, decoding nothing: ``ValueError`` unless it is that many frames."""
    frames = sum(len(bounds) - 1 for _, bounds in _frame_chunks(disk, path, chunk_size))
    if frames != records:
        raise ValueError(f"{path} holds {frames} frames for {records} records")


def stream_pieces(
    disk: LocalDisk, path: str, chunk_size: int = 1 << 20
) -> Iterator[list[Any]]:
    """A run's items decoded, one list per accounted ``chunk_size`` read
    (empty when a frame straddles the whole piece)."""
    loads = pickle.loads
    for buf, bounds in _frame_chunks(disk, path, chunk_size):
        view = memoryview(buf)
        yield [loads(view[start + FRAME_HEADER : end]) for start, end in pairwise(bounds)]


def stream_run(disk: LocalDisk, path: str, chunk_size: int = 1 << 20) -> Iterator[Any]:
    """Stream a run's items, reading the file in accounted ``chunk_size`` pieces."""
    return chain.from_iterable(stream_pieces(disk, path, chunk_size))


def stream_frames(
    disk: LocalDisk,
    path: str,
    keys: list[Any] | None = None,
    chunk_size: int = 1 << 20,
    *,
    payloads: bool = False,
) -> Iterator[tuple[list[Any], Sequence[bytes]]]:
    """A run of pairs as ``(keys, frames)``, one piece per accounted read.

    A caller that holds the run's ``keys`` (whoever wrote it) passes them
    and nothing is unpickled; otherwise each frame is decoded for its key.
    The frame count is checked against ``keys``.  With ``payloads`` each
    frame comes without its length prefix, ready for ``pickle.loads``.
    """
    loads = pickle.loads
    skip = FRAME_HEADER if payloads else 0
    seen = 0
    for buf, bounds in _frame_chunks(disk, path, chunk_size):
        frames = _Frames(buf, bounds, skip)
        if keys is None:
            view = memoryview(buf)
            piece = [loads(view[start + FRAME_HEADER : end])[0] for start, end in pairwise(bounds)]
        else:
            piece = keys[seen : seen + len(frames)]
            seen += len(frames)
        yield piece, frames
    if keys is not None and seen != len(keys):
        raise ValueError(f"{path} holds {seen} frames for {len(keys)} keys")
