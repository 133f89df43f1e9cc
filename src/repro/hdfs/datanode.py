"""DataNode: per-node block storage on the node's local disk.

A DataNode shares its :class:`~repro.io.disk.LocalDisk` with the node's
intermediate data (map output, spills).  That sharing is deliberate — it is
the disk-contention effect the paper measures: "the disk on each node not
only serves the input data from HDFS and writes the final output to HDFS,
but also handles intermediate data".  Experiments that give intermediate
data its own device simply hand the MapReduce runtime a second disk.
"""

from __future__ import annotations

from typing import Iterator

from repro.hdfs.blocks import BlockId
from repro.io.disk import LocalDisk

__all__ = ["DataNode"]


class DataNode:
    """Stores HDFS block replicas for one cluster node."""

    def __init__(self, node_name: str, disk: LocalDisk) -> None:
        self.node_name = node_name
        self.disk = disk

    def store_block(self, block_id: BlockId, data: bytes) -> None:
        """Persist one block replica (synchronous write, as in HDFS)."""
        self.disk.write(block_id.storage_name(), data, overwrite=True)

    def read_block(self, block_id: BlockId, *, charge: bool = True) -> bytes:
        """Read one full block replica (``charge=False``: without I/O accounting)."""
        name = block_id.storage_name()
        return self.disk.read(name) if charge else self.disk.peek(name)

    def stream_block(self, block_id: BlockId, chunk_size: int = 1 << 20) -> Iterator[bytes]:
        return self.disk.stream(block_id.storage_name(), chunk_size)

    def has_block(self, block_id: BlockId) -> bool:
        return self.disk.exists(block_id.storage_name())

    def delete_block(self, block_id: BlockId) -> None:
        self.disk.delete(block_id.storage_name())

    def block_names(self) -> list[str]:
        return self.disk.list_files("hdfs/")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"DataNode({self.node_name!r}, blocks={len(self.block_names())})"
