"""Record and key-value serialization.

Two record codecs mirror the paper's parsing-cost experiment (§III.B.1):

* :class:`TextLineCodec` — line-oriented flat text, the format of the
  WorldCup click logs.  Decoding splits each line and converts fields,
  paying a per-record parsing cost in the map task.
* :class:`BinaryCodec` — a SequenceFile-like binary format (length-prefixed
  pickled records) that skips text parsing entirely.

Intermediate data (map output, spill files, shuffle segments) is framed with
:func:`encode_frames` / :func:`iter_frames`: a stream of length-prefixed
pickled objects that can be read incrementally without materialising the
whole file.
"""

from __future__ import annotations

import pickle
import struct
import sys
from itertools import chain
from typing import Any, Callable, Iterable, Iterator, Protocol, Sequence

__all__ = [
    "encode_frames",
    "encode_each",
    "iter_frames",
    "frame_bounds",
    "frame_count",
    "FRAME_HEADER",
    "RecordCodec",
    "TextLineCodec",
    "RawLineCodec",
    "BinaryCodec",
    "estimate_size",
    "estimate_sizes",
]

_LEN = struct.Struct("<I")
#: Bytes of the length prefix that opens every frame.
FRAME_HEADER = _LEN.size


def encode_frames(items: Iterable[Any]) -> bytes:
    """Serialize ``items`` as a stream of length-prefixed pickle frames.

    Frames accumulate into one growing :class:`bytearray` (amortised
    doubling) instead of a list of 2-element fragments joined at the end —
    this is the framing hot path for every spill, run and shuffle segment.
    """
    buf = bytearray()
    pack = _LEN.pack
    dumps = pickle.dumps
    proto = pickle.HIGHEST_PROTOCOL
    for item in items:
        payload = dumps(item, protocol=proto)
        buf += pack(len(payload))
        buf += payload
    return bytes(buf)


def encode_each(items: Iterable[Any]) -> list[bytes]:
    """Each item's frame as its own ``bytes``: :func:`encode_frames`
    unjoined, for a merge that moves frames one at a time."""
    pack, dumps, proto = _LEN.pack, pickle.dumps, pickle.HIGHEST_PROTOCOL
    return [pack(len(p)) + p for p in (dumps(item, proto) for item in items)]


def iter_frames(data: bytes) -> Iterator[Any]:
    """Yield the objects previously encoded by :func:`encode_frames`.

    Payloads are handed to pickle as :class:`memoryview` slices — no
    per-frame ``bytes`` copy of the payload is made on decode.
    """
    view = memoryview(data)
    loads = pickle.loads
    unpack_from = _LEN.unpack_from
    header = _LEN.size
    offset = 0
    end = len(view)
    while offset < end:
        if offset + header > end:
            raise ValueError("truncated frame header")
        (length,) = unpack_from(view, offset)
        offset += header
        if offset + length > end:
            raise ValueError("truncated frame payload")
        yield loads(view[offset : offset + length])
        offset += length


def frame_bounds(data: bytes) -> list[int]:
    """Offsets of the frame boundaries in ``data``, by header scan alone.

    ``[0, end of frame 1, end of frame 2, ...]``: consecutive entries
    delimit one whole frame (header included).  A trailing partial frame
    is left out, so ``bounds[-1]`` is where the complete frames end.
    """
    unpack_from = _LEN.unpack_from
    header = _LEN.size
    bounds = [0]
    end = len(data)
    offset = 0
    while offset + header <= end:
        offset += header + unpack_from(data, offset)[0]
        if offset > end:
            break
        bounds.append(offset)
    return bounds


def frame_count(data: bytes) -> int:
    """Count frames without deserialising payloads."""
    bounds = frame_bounds(data)
    if bounds[-1] != len(data):
        raise ValueError("trailing bytes after last frame")
    return len(bounds) - 1


class RecordCodec(Protocol):
    """Encodes a sequence of records to bytes and decodes them back.

    ``decode`` must be an iterator so map tasks can stream a block without
    materialising every record at once.
    """

    name: str

    def encode(self, records: Iterable[Any]) -> bytes: ...

    def decode(self, data: bytes) -> Iterator[Any]: ...


class TextLineCodec:
    """Line-oriented text records with per-field conversion on decode.

    Parameters
    ----------
    field_parsers:
        One callable per field, applied to the split string fields.  A click
        log with schema ``(timestamp, user, url)`` uses
        ``(float, int, str)``.
    delimiter:
        Field separator within a line.
    """

    __slots__ = ("field_parsers", "delimiter", "name")

    def __init__(
        self,
        field_parsers: Sequence[Callable[[str], Any]],
        *,
        delimiter: str = "\t",
        name: str = "text",
    ) -> None:
        if not field_parsers:
            raise ValueError("field_parsers must not be empty")
        self.field_parsers = tuple(field_parsers)
        self.delimiter = delimiter
        self.name = name

    def encode(self, records: Iterable[Sequence[Any]]) -> bytes:
        lines = []
        nfields = len(self.field_parsers)
        for rec in records:
            if len(rec) != nfields:
                raise ValueError(
                    f"record has {len(rec)} fields, codec expects {nfields}"
                )
            lines.append(self.delimiter.join(str(f) for f in rec))
        if not lines:
            return b""
        return ("\n".join(lines) + "\n").encode("utf-8")

    def decode(self, data: bytes) -> Iterator[tuple[Any, ...]]:
        parsers = self.field_parsers
        delim = self.delimiter
        for line in data.decode("utf-8").splitlines():
            if not line:
                continue
            fields = line.split(delim)
            if len(fields) != len(parsers):
                raise ValueError(f"malformed line: {line!r}")
            yield tuple(p(f) for p, f in zip(parsers, fields))


class RawLineCodec:
    """Text lines delivered *unparsed* — each record is the raw line string.

    This is how Hadoop's TextInputFormat presents data: field extraction is
    the map function's job, which is exactly the regime the paper's Table II
    measures (its sessionization map "parses each click log into user id,
    timestamp, url").
    """

    __slots__ = ("name",)

    def __init__(self, *, name: str = "rawline") -> None:
        self.name = name

    def encode(self, records: Iterable[str]) -> bytes:
        lines = list(records)
        if not lines:
            return b""
        for line in lines:
            if "\n" in line:
                raise ValueError("raw lines must not contain newlines")
        return ("\n".join(lines) + "\n").encode("utf-8")

    def decode(self, data: bytes) -> Iterator[str]:
        for line in data.decode("utf-8").splitlines():
            if line:
                yield line


class BinaryCodec:
    """SequenceFile-like binary records: no text parsing on decode."""

    __slots__ = ("name",)

    def __init__(self, *, name: str = "binary") -> None:
        self.name = name

    def encode(self, records: Iterable[Any]) -> bytes:
        return encode_frames(records)

    def decode(self, data: bytes) -> Iterator[Any]:
        return iter_frames(data)


_NONE = type(None)


def estimate_size(obj: Any, _depth: int = 0) -> int:
    """Estimate the in-memory footprint of ``obj`` in bytes.

    Used for buffer and state-size accounting (map output buffers, the
    incremental hash table's memory budget).  Deliberately cheap and
    approximate: containers are traversed to depth 3, beyond which they
    are charged their own ``getsizeof`` alone.

    Every spill, flush and freeze point compares a sum of these values,
    so they are exact by contract (``tests/io/test_serialization.py``).
    Dispatch is on type identity — subclasses of the built-ins get bare
    ``sys.getsizeof`` — and a container's elements are sized in one
    inlined loop; only nested containers and other types recurse.
    :func:`estimate_sizes` is the batch form, under the same contract.
    """
    t = type(obj)
    if t is str:
        return 49 + len(obj)
    if t is int or t is bool:
        return 28
    if t is float:
        return 24
    if t is tuple or t is list or t is set or t is frozenset:
        elements: Iterable[Any] = obj
    elif t is dict:
        elements = chain(obj, obj.values())
    elif t is _NONE:
        return 16
    elif t is bytes or t is bytearray:
        return 33 + len(obj)
    else:
        return sys.getsizeof(obj)
    size = sys.getsizeof(obj)
    if _depth >= 3:
        return size
    for x in elements:
        t = type(x)
        if t is str:
            size += 49 + len(x)
        elif t is int or t is bool:
            size += 28
        elif t is float:
            size += 24
        else:
            size += estimate_size(x, _depth + 1)
    return size


#: Exact types sized by a constant, and those sized ``base + len(obj)``.
_FIXED = {int: 28, bool: 28, float: 24, _NONE: 16}
_PLUS_LEN = {str: 49, bytes: 33, bytearray: 33}


def estimate_sizes(values: Sequence[Any]) -> list[int]:
    """``[estimate_size(v) for v in values]``, exactly, a column at a time.

    Values of one exact scalar type, or exact tuples of one width whose
    every column is ``int``/``bool``, ``float`` or ``str``, are sized in a
    few C-level passes; any other segment value by value, as is one of
    fewer than 16 values, where the passes cost more than the loop (a
    batch of one is the per-pair path).  Lists never take the column
    path: their ``getsizeof`` depends on capacity.
    """
    if len(values) < 16:
        return [estimate_size(v) for v in values]
    types = set(map(type, values))
    t = types.pop() if len(types) == 1 else None
    if t in _FIXED:
        return [_FIXED[t]] * len(values)
    if t in _PLUS_LEN:
        return [_PLUS_LEN[t] + n for n in map(len, values)]
    if t is tuple and len(set(map(len, values))) == 1:
        # Every exact tuple of one width has the same ``getsizeof``.
        base, lengths = sys.getsizeof(values[0]), []
        for column in zip(*values):
            kinds = set(map(type, column))
            if kinds == {str}:
                base += 49
                lengths.append(map(len, column))
            elif kinds <= {int, bool} or kinds == {float}:
                base += _FIXED[kinds.pop()]
            else:
                break
        else:
            return [base + sum(ns) for ns in zip(*lengths)] if lengths else [base] * len(values)
    return [estimate_size(v) for v in values]
