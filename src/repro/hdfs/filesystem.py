"""HDFS facade: record-oriented file writes, reads and input splits.

The facade ties the NameNode and DataNodes together and provides the two
operations the engines need:

* :meth:`HDFS.write_records` — encode a record stream with a codec and
  chunk it into blocks of the configured size, each replicated per policy;
* :meth:`HDFS.input_splits` — one split per block with its preferred
  (replica-holding) nodes, which the scheduler uses for locality.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator

from repro.hdfs.blocks import DEFAULT_BLOCK_SIZE, BlockId, BlockInfo
from repro.hdfs.datanode import DataNode
from repro.hdfs.namenode import FileInfo, NameNode
from repro.io.serialization import BinaryCodec, RecordCodec

__all__ = ["InputSplit", "NodeLossReport", "HDFS"]


@dataclass(frozen=True, slots=True)
class InputSplit:
    """One unit of map-task input: a block plus its locality hints."""

    block_id: BlockId
    nbytes: int
    records: int
    preferred_nodes: tuple[str, ...]


@dataclass(slots=True)
class NodeLossReport:
    """What losing one DataNode cost the filesystem."""

    node: str
    blocks_rereplicated: int = 0
    bytes_rereplicated: int = 0
    lost_blocks: list[BlockId] = field(default_factory=list)


class HDFS:
    """The distributed filesystem facade used by every engine."""

    def __init__(
        self,
        datanodes: dict[str, DataNode],
        *,
        replication: int = 1,
        block_size: int = DEFAULT_BLOCK_SIZE,
    ) -> None:
        if not datanodes:
            raise ValueError("HDFS needs at least one DataNode")
        if block_size <= 0:
            raise ValueError("block_size must be positive")
        self.datanodes = dict(datanodes)
        self.namenode = NameNode(list(datanodes), replication=replication)
        self.block_size = block_size
        self._codecs: dict[str, RecordCodec] = {"binary": BinaryCodec()}
        #: Optional chained-job block cache (duck-typed; see
        #: :class:`repro.mapreduce.chain.PartitionCache`).  When set,
        #: registered paths' block bytes bypass the DataNodes entirely:
        #: placement metadata is still allocated (same cursor positions,
        #: same locality hints), but the data lives in the cache.
        self.block_cache: Any = None

    # -- codec registry -----------------------------------------------------

    def register_codec(self, codec: RecordCodec) -> None:
        self._codecs[codec.name] = codec

    def codec(self, name: str) -> RecordCodec:
        try:
            return self._codecs[name]
        except KeyError:
            raise KeyError(f"unknown codec {name!r}; register it first") from None

    # -- writes ---------------------------------------------------------------

    def write_records(
        self,
        path: str,
        records: Iterable[Any],
        *,
        codec: RecordCodec | None = None,
        writer_node: str | None = None,
        records_per_chunk: int = 256,
    ) -> FileInfo:
        """Write a record stream as a new HDFS file.

        Records are encoded with ``codec`` (binary by default) in chunks of
        ``records_per_chunk`` and packed into blocks of roughly
        :attr:`block_size` bytes.  Chunk encodings are concatenated, which
        every codec in :mod:`repro.io.serialization` supports (the binary
        codec's one frame per chunk and line-oriented text are both
        concatenable); this keeps the write linear in the data instead of
        re-encoding the pending buffer on every probe.  A binary chunk is
        also the unit of decode — one ``pickle.loads`` per chunk — so
        ``records_per_chunk`` sets how many records one read unpickles at
        once, and a block never splits a chunk.
        """
        codec = codec or self._codecs["binary"]
        if codec.name not in self._codecs:
            self.register_codec(codec)
        info = self.namenode.create_file(path, codec_name=codec.name)

        chunks: list[bytes] = []
        chunk_records = 0
        nbytes = 0
        pending: list[Any] = []
        for record in records:
            pending.append(record)
            if len(pending) >= records_per_chunk:
                data = codec.encode(pending)
                chunks.append(data)
                nbytes += len(data)
                chunk_records += len(pending)
                pending = []
                if nbytes >= self.block_size:
                    self._store_block(
                        path, b"".join(chunks), chunk_records, writer_node
                    )
                    chunks, chunk_records, nbytes = [], 0, 0
        if pending:
            data = codec.encode(pending)
            chunks.append(data)
            chunk_records += len(pending)
        if chunks:
            self._store_block(path, b"".join(chunks), chunk_records, writer_node)
        return info

    def _store_block(
        self,
        path: str,
        data: bytes,
        records: int,
        writer_node: str | None,
    ) -> BlockInfo:
        block = self.namenode.place_block(
            path, len(data), records, preferred=writer_node
        )
        cache = self.block_cache
        if cache is not None and cache.captures(path):
            cache.store(block.block_id, data)
            return block
        for node in block.replicas:
            self.datanodes[node].store_block(block.block_id, data)
        return block

    def _flush_block(
        self,
        path: str,
        records: list[Any],
        codec: RecordCodec,
        writer_node: str | None,
    ) -> BlockInfo:
        return self._store_block(
            path, codec.encode(records), len(records), writer_node
        )

    def append_block(
        self,
        path: str,
        records: list[Any],
        *,
        writer_node: str | None = None,
    ) -> BlockInfo:
        """Append one pre-grouped block to an existing file.

        Used by reduce tasks, which each write their own output region.
        """
        info = self.namenode.file_info(path)
        codec = self.codec(info.codec_name)
        return self._flush_block(path, records, codec, writer_node)

    # -- reads ---------------------------------------------------------------

    def read_block_bytes(
        self, block_id: BlockId, *, from_node: str | None = None, charge: bool = True
    ) -> bytes:
        """Read one block replica's raw bytes.

        ``from_node`` selects the replica (for locality accounting); by
        default the first replica serves the read.  A missing replica (its
        DataNode lost the data) fails over to the remaining replicas, as
        HDFS clients do; only when every replica is gone does the read
        raise :class:`FileNotFoundError`.  ``charge=False`` reads without
        charging the replica's disk.
        """
        cache = self.block_cache
        if cache is not None and cache.captures(block_id.path):
            data = cache.get(block_id)
            if data is not None:
                return data
        replicas = self.namenode.locate(block_id)
        order = list(replicas)
        if from_node in replicas:
            order.remove(from_node)
            order.insert(0, from_node)
        last_error: FileNotFoundError | None = None
        for node in order:
            try:
                return self.datanodes[node].read_block(block_id, charge=charge)
            except FileNotFoundError as exc:
                last_error = exc
        raise FileNotFoundError(
            f"all {len(order)} replica(s) of {block_id} are gone"
        ) from last_error

    def read_block_records(
        self, block_id: BlockId, *, from_node: str | None = None
    ) -> Iterator[Any]:
        info = self.namenode.file_info(block_id.path)
        codec = self.codec(info.codec_name)
        return codec.decode(self.read_block_bytes(block_id, from_node=from_node))

    def read_records(self, path: str) -> Iterator[Any]:
        """Stream every record of a file, block by block."""
        for block in self.namenode.blocks_of(path):
            yield from self.read_block_records(block.block_id)

    # -- splits ---------------------------------------------------------------

    def input_splits(self, path: str) -> list[InputSplit]:
        """One split per block, carrying replica locality."""
        return [
            InputSplit(
                block_id=b.block_id,
                nbytes=b.nbytes,
                records=b.records,
                preferred_nodes=tuple(b.replicas),
            )
            for b in self.namenode.blocks_of(path)
        ]

    # -- node loss -----------------------------------------------------------

    def handle_node_loss(self, node: str) -> NodeLossReport:
        """React to a dead DataNode the way HDFS does.

        The node leaves the placement set, its replicas are struck from
        the block metadata, and every block that survives elsewhere but
        now sits under the replication factor is re-replicated onto a
        live node (a real, accounted read from a survivor plus a write to
        the new holder).  Blocks whose only replica was on the dead node
        are reported lost; with ``replication=1`` that is the price the
        paper's setup pays for skipping redundancy.
        """
        report = NodeLossReport(node=node)
        if node not in self.namenode.node_names:
            return report
        self.namenode.decommission(node)
        under, lost = self.namenode.drop_node_replicas(node)
        cache = self.block_cache
        if cache is not None:
            # Cache-resident blocks never lived on the DataNodes: they are
            # neither lost with the node nor in need of re-replication.
            lost = [b for b in lost if not cache.holds(b)]
            under = [b for b in under if not cache.holds(b.block_id)]
        report.lost_blocks = lost
        for block in under:
            target = self.namenode.choose_replacement(block)
            if target is None:
                continue
            data = self.datanodes[block.replicas[0]].read_block(block.block_id)
            self.datanodes[target].store_block(block.block_id, data)
            block.replicas.append(target)
            report.blocks_rereplicated += 1
            report.bytes_rereplicated += len(data)
        return report

    # -- maintenance -----------------------------------------------------------

    def delete_file(self, path: str) -> None:
        info = self.namenode.delete_file(path)
        cache = self.block_cache
        if cache is not None and cache.captures(path):
            cache.release(path)
            return
        for block in info.blocks:
            for node in block.replicas:
                self.datanodes[node].delete_block(block.block_id)

    def file_bytes(self, path: str) -> int:
        return self.namenode.file_info(path).nbytes

    def file_records(self, path: str) -> int:
        return self.namenode.file_info(path).records
