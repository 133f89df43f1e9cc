"""Block identifiers and metadata for the HDFS-like store.

HDFS stores files as fixed-size blocks (64 MB by default in the paper's
setup); blocks are both the unit of replication and the unit of map-task
scheduling.  These types are pure metadata — block payloads live on the
:class:`~repro.hdfs.datanode.DataNode` disks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["BlockId", "BlockInfo", "DEFAULT_BLOCK_SIZE"]

#: The paper's HDFS block size: 64 MB.  Laptop-scale experiments pass a
#: much smaller value; the engine treats it purely as a parameter.
DEFAULT_BLOCK_SIZE = 64 * 1024 * 1024


@dataclass(frozen=True, slots=True, order=True)
class BlockId:
    """Identity of one block: the owning file path and block index."""

    path: str
    index: int

    def storage_name(self) -> str:
        """The file name under which DataNodes store this block."""
        return f"hdfs/{self.path}/blk-{self.index:06d}"


@dataclass(slots=True)
class BlockInfo:
    """Metadata the NameNode keeps for one block."""

    block_id: BlockId
    nbytes: int
    records: int
    replicas: list[str] = field(default_factory=list)
