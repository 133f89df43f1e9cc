"""Partitioning map output across reducers.

Partitioning must be deterministic across processes and runs (Python's
built-in ``hash`` is salted per process for strings), so the default
partitioner hashes a canonical byte encoding of the key with CRC-32.
"""

from __future__ import annotations

import pickle
import zlib
from typing import Any, Callable

__all__ = ["stable_hash", "HashPartitioner", "Partitioner"]

Partitioner = Callable[[Any, int], int]


def stable_hash(key: Any) -> int:
    """A deterministic, well-mixed 32-bit hash of any picklable key."""
    if isinstance(key, str):
        data = key.encode("utf-8")
    elif isinstance(key, bytes):
        data = key
    elif isinstance(key, int):
        try:
            data = key.to_bytes(16, "little", signed=True)
        except OverflowError:  # beyond signed 128 bits (e.g. ``uuid4().int``)
            data = pickle.dumps(key, protocol=pickle.HIGHEST_PROTOCOL)
    else:
        data = pickle.dumps(key, protocol=pickle.HIGHEST_PROTOCOL)
    return zlib.crc32(data)


class HashPartitioner:
    """``partition(key) = stable_hash(key) mod num_partitions``.

    Called once per map-output pair, so it does not re-validate
    ``num_partitions``: whoever owns the count (the job configs, the
    one-pass buffers) checks it once, where it is set.
    """

    def __call__(self, key: Any, num_partitions: int) -> int:
        try:
            return stable_hash(key) % num_partitions
        except ZeroDivisionError:
            raise ValueError("num_partitions must be positive") from None


hash_partitioner = HashPartitioner()
