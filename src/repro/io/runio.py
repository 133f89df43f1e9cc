"""Reading and writing runs of key-value pairs on a :class:`LocalDisk`.

A *run* is a file of framed ``(key, value)`` pairs.  Sort-merge writes runs
in key order; hash techniques write unordered partitions.  The same framing
is used for both, so readers can stream either.

Writers buffer frames and flush in large chunks to keep the accounted
operation counts realistic (one disk op per flush, not per record).

**Frames travel with unchanged records.**  A record is pickled once, when
it is first written.  From then on whoever only moves it carries its frame
(the 4-byte length + payload exactly as it sits in the file): a fetched
segment keeps the buffer it was decoded from (:class:`FramedPairs`),
:func:`stream_frames` reads a run as ``(key, frame)`` records, merges order
those by key like any pair, and :func:`write_run` joins the frames of a
:class:`Framed` stream instead of pickling again.  Only a stage that makes
new pairs (a combiner) hands :func:`write_run` plain items.  Re-pickling a
decoded pair yields its frame again for every value the workloads emit;
the known exception is a ``set``/``frozenset`` value, whose re-pickle has
the same length but may order the elements differently.
"""

from __future__ import annotations

import pickle
from itertools import islice, pairwise
from operator import itemgetter
from typing import Any, Iterable, Iterator

from repro.io.disk import LocalDisk
from repro.io.serialization import FRAME_HEADER, encode_frames, frame_bounds, iter_frames

__all__ = [
    "Framed",
    "FramedPairs",
    "RunWriter",
    "decode_run",
    "frame_records",
    "read_run",
    "run_chunks",
    "stream_frames",
    "stream_run",
    "write_chunks",
    "write_run",
]

_DEFAULT_FLUSH = 4 * 1024 * 1024
#: Records per appended chunk: :class:`RunWriter` charges 64 bytes a record.
_FLUSH_RECORDS = _DEFAULT_FLUSH // 64

_KEY = itemgetter(0)
_FRAME = itemgetter(1)


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


class FramedPairs(list):
    """The decoded pairs of a run, with the bytes they were decoded from.

    An ordinary list of ``(key, value)`` pairs to everything that reads
    it; ``data`` rides along so that a writer of the unchanged pairs can
    reuse their frames (:func:`frame_records`).  Frames are only cut out
    of ``data`` when a writer asks.  Do not mutate the list.  Crosses a
    process boundary as ``data`` alone and is decoded again on arrival.
    """

    __slots__ = ("data",)

    def __reduce__(self) -> tuple[Any, ...]:
        return decode_run, (self.data,)


class Framed:
    """Marks ``records`` as ``(key, frame)``: written by joining the frames."""

    __slots__ = ("records",)

    def __init__(self, records: Iterable[tuple[Any, bytes]]) -> None:
        self.records = records


def decode_run(data: bytes) -> FramedPairs:
    """Decode a whole run held in memory, keeping ``data`` with the pairs."""
    pairs = FramedPairs(iter_frames(data))
    pairs.data = data
    return pairs


def frame_records(pairs: list[tuple[Any, Any]]) -> list[tuple[Any, bytes]]:
    """``pairs`` as ``(key, frame)`` records for a :class:`Framed` writer.

    The frames :class:`FramedPairs` carry are reused; pairs that carry
    none (pushed objects, a caller's own list) are encoded here, once.
    """
    data = pairs.data if isinstance(pairs, FramedPairs) else encode_frames(pairs)
    bounds = frame_bounds(data)
    if len(bounds) - 1 != len(pairs) or bounds[-1] != len(data):
        raise ValueError(f"{len(pairs)} pairs do not match their {len(bounds) - 1} frames")
    return list(zip(map(_KEY, pairs), [data[a:b] for a, b in pairwise(bounds)]))


def run_chunks(items: Iterable[Any]) -> Iterator[bytes]:
    """The chunks a run of ``items`` is appended in, one per 65 536 records.

    Plain items are pickled; the records of a :class:`Framed` stream give
    up the frames they carry.  Lazy: a streaming merge stays streaming.
    """
    framed = isinstance(items, Framed)
    it = iter(items.records if framed else items)
    while batch := list(islice(it, _FLUSH_RECORDS)):
        yield b"".join(map(_FRAME, batch)) if framed else encode_frames(batch)


def write_chunks(disk: LocalDisk, path: str, chunks: Iterable[bytes]) -> int:
    """Create ``path`` and append each chunk; return the bytes written."""
    disk.create(path, overwrite=True)
    nbytes = 0
    for chunk in chunks:
        disk.append(path, chunk)
        nbytes += len(chunk)
    return nbytes


def write_run(disk: LocalDisk, path: str, items: Iterable[Any]) -> int:
    """Write ``items`` as a run at ``path``; return the byte size written."""
    return write_chunks(disk, path, run_chunks(items))


def read_run(disk: LocalDisk, path: str) -> FramedPairs:
    """Read a whole run into memory with one accounted read."""
    return decode_run(disk.read(path))


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


def stream_run(disk: LocalDisk, path: str, chunk_size: int = 1 << 20) -> Iterator[Any]:
    """Stream a run's items, reading the file in ``chunk_size`` pieces.

    Frames may straddle chunk boundaries; the reader carries the remainder
    between chunks, so disk accounting still reflects large sequential reads.
    """
    loads = pickle.loads
    for buf, bounds in _frame_chunks(disk, path, chunk_size):
        view = memoryview(buf)
        for start, end in pairwise(bounds):
            yield loads(view[start + FRAME_HEADER : end])


def stream_frames(
    disk: LocalDisk,
    path: str,
    keys: list[Any] | None = None,
    chunk_size: int = 1 << 20,
) -> Iterator[tuple[Any, bytes]]:
    """Stream a run of pairs as ``(key, frame)`` records, same reads as above.

    A caller that still holds the run's ``keys`` (the map task that wrote
    it) passes them and nothing is unpickled; otherwise each frame is
    decoded for its key.  The frame count is checked against ``keys``.
    """
    loads = pickle.loads
    seen = 0
    for buf, bounds in _frame_chunks(disk, path, chunk_size):
        if keys is None:
            view = memoryview(buf)
            for start, end in pairwise(bounds):
                yield loads(view[start + FRAME_HEADER : end])[0], buf[start:end]
        else:
            frames = [buf[start:end] for start, end in pairwise(bounds)]
            yield from zip(keys[seen : seen + len(frames)], frames)
            seen += len(frames)
    if keys is not None and seen != len(keys):
        raise ValueError(f"{path} holds {seen} frames for {len(keys)} keys")
