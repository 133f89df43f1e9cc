"""A job's slice mapper is unobservable: the same run, byte for byte.

Every paper workload's job runs on Hadoop, HOP and one-pass twice, once
with the slice mapper its builder gives it and once with ``map_slice=None``
(the per-record loop over ``map_fn``), at front-end slices of 1 and 256
records.  The output blocks' bytes, the counters minus ``time.*``, every
integer ``DiskStats`` field of every device and HOP's mini-chunk
boundaries (which the ``ends`` offsets decide) must all be equal.
"""

import dataclasses

import pytest

from repro.core.engine import OnePassEngine
from repro.mapreduce import hop, sortmerge
from repro.mapreduce.hop import HOPConfig, HOPEngine
from repro.mapreduce.runtime import HadoopEngine, LocalCluster
from repro.workloads import WORKLOADS, paper_jobs

#: About 4 000 clicks or 66 documents: several 16 KiB input blocks of
#: 16-record chunks each.
RECORDS = 4_000


@pytest.fixture(scope="module")
def inputs():
    return {workload: paper_jobs(workload)[0](RECORDS) for workload in WORKLOADS}


def small_budgets(job, engine):
    """Budgets that make the map side spill and the reduce side merge."""
    if engine == "onepass":
        config = dataclasses.replace(
            job.config, num_reducers=3, map_buffer_bytes=16 * 1024,
            map_memory_bytes=16 * 1024, reduce_memory_bytes=32 * 1024,
        )  # fmt: skip
        return dataclasses.replace(job, config=config)
    return job.with_config(num_reducers=3, map_buffer_bytes=16 * 1024, reduce_buffer_bytes=32 * 1024)


def run(records, workload, engine, slice_mapper, monkeypatch):
    """One serial run; returns everything the two mappers must agree on."""
    _, sortmerge_job, onepass_job = paper_jobs(workload)
    job = small_budgets((onepass_job if engine == "onepass" else sortmerge_job)("in", "out"), engine)
    assert job.map_slice is not None
    if not slice_mapper:
        job = dataclasses.replace(job, map_slice=None)
    cluster = LocalCluster(num_nodes=3, block_size=16 * 1024)
    cluster.hdfs.write_records("in", records, records_per_chunk=16)
    assert len(cluster.hdfs.input_splits("in")) > 2
    chunks = []
    emit_pending = hop._ChunkBuffer._emit_pending

    def recording_emit(self):
        chunks.append((self.task_id, self._pending))
        emit_pending(self)

    with monkeypatch.context() as patch:
        patch.setattr(hop._ChunkBuffer, "_emit_pending", recording_emit)
        patch.setattr(hop._ChunkBuffer, "finish", recording_emit)
        if engine == "hadoop":
            result = HadoopEngine(cluster).run(job)
        elif engine == "hop":
            result = HOPEngine(cluster, hop_config=HOPConfig(granularity_records=97)).run(job)
        else:
            result = OnePassEngine(cluster).run(job)
    integer_fields = [f.name for f in dataclasses.fields(next(iter(cluster.disk_stats().values())))]
    integer_fields.remove("busy_time")
    return {
        "output": [
            cluster.hdfs.read_block_bytes(block.block_id, charge=False)
            for block in cluster.hdfs.namenode.blocks_of("out")
        ],
        "counters": [
            (name, value) for name, value in result.counters.as_dict().items()
            if not name.startswith("time.")
        ],
        "disks": {
            device: [getattr(stats, name) for name in integer_fields]
            for device, stats in cluster.disk_stats().items()
        },
        "chunks": chunks,
    }


@pytest.mark.parametrize("slice_records", [1, 256])
@pytest.mark.parametrize("engine", ["hadoop", "hop", "onepass"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_slice_mapper_and_per_record_loop_give_the_same_run(
    inputs, workload, engine, slice_records, monkeypatch
):
    monkeypatch.setattr(sortmerge, "MAP_SLICE_RECORDS", slice_records)
    records = inputs[workload]
    with_slices = run(records, workload, engine, True, monkeypatch)
    per_record = run(records, workload, engine, False, monkeypatch)
    assert with_slices["output"] and with_slices == per_record
    assert bool(with_slices["chunks"]) == (engine == "hop")
