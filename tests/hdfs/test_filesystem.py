"""HDFS facade: record writes, block packing, splits, reads."""

import pytest

from repro.hdfs.datanode import DataNode
from repro.hdfs.filesystem import HDFS
from repro.io.disk import LocalDisk
from repro.io.serialization import TextLineCodec


def make_hdfs(num_nodes=3, block_size=4096, replication=1):
    disks = {f"n{i}": LocalDisk(name=f"n{i}") for i in range(num_nodes)}
    datanodes = {name: DataNode(name, disk) for name, disk in disks.items()}
    return HDFS(datanodes, replication=replication, block_size=block_size), disks


class TestWriteRead:
    def test_roundtrip(self):
        hdfs, _ = make_hdfs()
        records = [(i, f"value-{i}") for i in range(500)]
        hdfs.write_records("f", records)
        assert list(hdfs.read_records("f")) == records

    def test_multiple_blocks_created(self):
        hdfs, _ = make_hdfs(block_size=2048)
        # Distinct payloads: one frame per chunk would share a repeated string.
        hdfs.write_records("f", [(i, f"{i:050d}") for i in range(400)])
        assert len(hdfs.namenode.blocks_of("f")) > 1

    def test_block_records_sum_to_total(self):
        hdfs, _ = make_hdfs(block_size=2048)
        hdfs.write_records("f", [(i,) for i in range(300)])
        assert hdfs.file_records("f") == 300
        assert hdfs.file_bytes("f") == sum(
            b.nbytes for b in hdfs.namenode.blocks_of("f")
        )

    def test_empty_file(self):
        hdfs, _ = make_hdfs()
        hdfs.write_records("f", [])
        assert list(hdfs.read_records("f")) == []
        assert hdfs.input_splits("f") == []

    def test_text_codec_roundtrip(self):
        hdfs, _ = make_hdfs()
        codec = TextLineCodec((float, int, str), name="clicks")
        records = [(1.5, 2, "/a"), (2.5, 3, "/b")]
        hdfs.write_records("f", records, codec=codec)
        assert list(hdfs.read_records("f")) == records
        assert hdfs.namenode.file_info("f").codec_name == "clicks"

    def test_duplicate_path_raises(self):
        hdfs, _ = make_hdfs()
        hdfs.write_records("f", [1])
        with pytest.raises(FileExistsError):
            hdfs.write_records("f", [2])

    def test_append_block(self):
        hdfs, _ = make_hdfs()
        hdfs.namenode.create_file("out", codec_name="binary")
        hdfs.append_block("out", [("k", 1)], writer_node="n0")
        hdfs.append_block("out", [("k", 2)])
        assert list(hdfs.read_records("out")) == [("k", 1), ("k", 2)]

    def test_writer_node_locality(self):
        hdfs, _ = make_hdfs()
        hdfs.namenode.create_file("out")
        block = hdfs.append_block("out", [1, 2, 3], writer_node="n2")
        assert block.replicas[0] == "n2"


class TestSplitsAndReplicas:
    def test_splits_match_blocks(self):
        hdfs, _ = make_hdfs(block_size=1024)
        hdfs.write_records("f", [(i, "x" * 30) for i in range(200)])
        splits = hdfs.input_splits("f")
        blocks = hdfs.namenode.blocks_of("f")
        assert len(splits) == len(blocks)
        for split, block in zip(splits, blocks):
            assert split.block_id == block.block_id
            assert split.preferred_nodes == tuple(block.replicas)
            assert split.records == block.records

    def test_replicated_blocks_stored_on_all_replicas(self):
        hdfs, disks = make_hdfs(replication=2)
        hdfs.write_records("f", [(i,) for i in range(10)])
        block = hdfs.namenode.blocks_of("f")[0]
        for node in block.replicas:
            assert DataNode(node, disks[node]).has_block(block.block_id)

    def test_read_from_specific_replica(self):
        hdfs, disks = make_hdfs(replication=2)
        hdfs.write_records("f", [(i,) for i in range(10)])
        block = hdfs.namenode.blocks_of("f")[0]
        replica = block.replicas[1]
        before = disks[replica].stats.bytes_read
        hdfs.read_block_bytes(block.block_id, from_node=replica)
        assert disks[replica].stats.bytes_read > before

    def test_delete_file_removes_replicas(self):
        hdfs, disks = make_hdfs()
        hdfs.write_records("f", [(i,) for i in range(10)])
        hdfs.delete_file("f")
        assert not hdfs.namenode.exists("f")
        for disk in disks.values():
            assert disk.list_files("hdfs/") == []


class TestValidation:
    def test_requires_datanodes(self):
        with pytest.raises(ValueError):
            HDFS({})

    def test_positive_block_size(self):
        disks = {"n0": LocalDisk()}
        with pytest.raises(ValueError):
            HDFS({"n0": DataNode("n0", disks["n0"])}, block_size=0)

    def test_unknown_codec_rejected(self):
        hdfs, _ = make_hdfs()
        with pytest.raises(KeyError):
            hdfs.codec("nope")
