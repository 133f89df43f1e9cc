"""Partitioning map output across reducers.

Partitioning must be deterministic across processes and runs (Python's
built-in ``hash`` is salted per process for strings), so the default
partitioner hashes a canonical byte encoding of the key with CRC-32.
"""

from __future__ import annotations

import pickle
import zlib
from typing import Any

from repro.io.serialization import estimate_size

__all__ = ["stable_hash", "hash_partitioner", "KeyPartitions", "KeyFacts"]


def stable_hash(key: Any) -> int:
    """A deterministic, well-mixed 32-bit hash of any picklable key.

    Keys that compare equal must hash equal, or a group-by would depend on
    the reducer count: ``1 == 1.0 == True`` and ``0 == 0.0 == -0.0``, so
    an integral float is hashed as the ``int`` it equals (NaN, the
    infinities and non-integral floats equal no ``int`` and are pickled).
    Tuples and frozensets are pickled in a canonical form
    (:func:`_canonical`): inside a tuple, at any depth, an element that
    equals an ``int`` is that ``int``, and a frozenset is its elements'
    hashes, sorted (its own iteration order follows the process's hash
    seed).  Pickle memoises repeated objects, so equal ``str`` and
    ``bytes`` elements of a tuple, at any depth, are made one object
    first: ``(s, s)`` and ``(s, t)`` with ``s == t`` hash equal.
    """
    if isinstance(key, str):
        data = key.encode("utf-8")
    elif isinstance(key, bytes):
        data = key
    else:
        if isinstance(key, float) and key.is_integer():
            key = int(key)
        if isinstance(key, int):
            try:
                return zlib.crc32(key.to_bytes(16, "little", signed=True))
            except OverflowError:  # beyond signed 128 bits (e.g. ``uuid4().int``)
                pass
        data = pickle.dumps(_canonical(key), protocol=pickle.HIGHEST_PROTOCOL)
    return zlib.crc32(data)


def _canonical(key: Any, memo: dict[Any, Any] | None = None) -> Any:
    """``key`` as :func:`stable_hash` pickles it; ``memo`` (one per
    top-level tuple) maps a ``str`` / ``bytes`` element to the first equal
    one.  So a tuple of ``str``, ``int``, ``bytes``, ``None`` and
    non-integral floats with no equal but distinct elements hashes as its
    own pickle."""
    if isinstance(key, tuple):
        if memo is None:
            memo = {}
        return tuple([_canonical(element, memo) for element in key])
    if isinstance(key, (str, bytes)):
        return key if memo is None else memo.setdefault(key, key)
    if isinstance(key, frozenset):
        return sorted(map(stable_hash, key))
    if isinstance(key, int) or isinstance(key, float) and key.is_integer():
        return int(key)
    return key


def hash_partitioner(key: Any, num_partitions: int) -> int:
    """``stable_hash(key) mod num_partitions``.

    Called once per map-output pair that misses a task's memo, so it does
    not re-validate ``num_partitions``: whoever owns the count (the job
    configs, the memos below) checks it once, where it is set.
    """
    try:
        return stable_hash(key) % num_partitions
    except ZeroDivisionError:
        raise ValueError("num_partitions must be positive") from None


class KeyPartitions(dict[Any, int]):
    """One map task's memo of ``key -> hash_partitioner(key, num_partitions)``.

    A collect loop routes a key once per task, not once per record:
    ``memo[key]`` hashes it on first sight and is one C-level dict probe
    on every repeat.  Only keys of exact type ``str`` or ``int`` may be
    looked up — ``1``, ``1.0`` and ``True`` share a dict slot but not a
    size — so every loop tests ``type(key)`` first and routes any other
    key per record.  The memo dies with its task's buffer.
    """

    __slots__ = ("num_partitions",)

    def __init__(self, num_partitions: int) -> None:
        if num_partitions < 1:
            raise ValueError("num_partitions must be positive")
        self.num_partitions = num_partitions

    def __missing__(self, key: Any) -> int:
        partition = self[key] = stable_hash(key) % self.num_partitions
        return partition


class KeyFacts(dict[Any, tuple[int, int]]):
    """:class:`KeyPartitions` for a buffer that also sizes its keys:
    ``key -> (partition, estimate_size(key) + overhead)``, ``overhead``
    being what the buffer charges per pair beside key and value::

        t = type(key)
        partition, key_bytes = facts[key] if t is str or t is int else facts.of(key)
    """

    __slots__ = ("num_partitions", "overhead")

    def __init__(self, num_partitions: int, overhead: int) -> None:
        if num_partitions < 1:
            raise ValueError("num_partitions must be positive")
        self.num_partitions = num_partitions
        self.overhead = overhead

    def of(self, key: Any) -> tuple[int, int]:
        """The facts of ``key``, computed and not remembered (any key type)."""
        return stable_hash(key) % self.num_partitions, estimate_size(key) + self.overhead

    def __missing__(self, key: Any) -> tuple[int, int]:
        n, overhead = self.num_partitions, self.overhead
        facts = self[key] = (stable_hash(key) % n, estimate_size(key) + overhead)
        return facts
