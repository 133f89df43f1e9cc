"""Call budgets of the byte accounting: a record is sized and routed once.

Counts, not timings — they repeat exactly.  ``estimate_size`` and
``stable_hash`` are wrapped by counters in the modules that bind them (the
estimator's own recursion stays inside ``repro.io.serialization`` and is
not counted: these are *top-level* calls), and a job runs on the serial
executor, in this process.

Before the key-facts memo and the growth-reporting states every map-output
record cost one ``stable_hash`` and one key estimate, and every fold on the
reduce side re-measured its state.

The last two budgets count every Python call ``sys.setprofile`` sees in a
``repro`` package: the map-side collect loop's cost per pair must not grow
with the reducer count, and a sanitizer that is constructed but never
installed must cost nothing.
"""

import collections
import random
import sys

import pytest

import repro.core.aggregates
import repro.core.hash_tables
import repro.core.partitioner
import repro.mapreduce.partition
import repro.mapreduce.sortmerge
from repro.core.engine import OnePassConfig, OnePassEngine
from repro.core.incremental import IncrementalHash
from repro.exec.base import get_kernel
from repro.exec.kernels import OnePassMapSpec
from repro.io.serialization import BinaryCodec
from repro.mapreduce.api import JobConfig
from repro.mapreduce.counters import C
from repro.mapreduce.hop import HOPEngine
from repro.mapreduce.runtime import HadoopEngine, LocalCluster
from repro.workloads.inverted_index import (
    index_map,
    inverted_index_job,
    inverted_index_onepass_job,
)
from repro.san import Sanitizer
from repro.workloads.page_frequency import page_frequency_job, page_frequency_onepass_job

ESTIMATOR_BINDINGS = (
    repro.mapreduce.partition,
    repro.mapreduce.sortmerge,
    repro.core.partitioner,
    repro.core.aggregates,
    repro.core.hash_tables,
)
NUM_REDUCERS = 3


class Calls:
    def __init__(self, fn):
        self.fn = fn
        self.n = 0

    def __call__(self, *args):
        self.n += 1
        return self.fn(*args)


@pytest.fixture
def calls(monkeypatch):
    estimate = Calls(repro.mapreduce.partition.estimate_size)
    for module in ESTIMATOR_BINDINGS:
        monkeypatch.setattr(module, "estimate_size", estimate)
    # The map side's binding only: hybrid hash's spill buckets bind their own.
    map_hash = Calls(repro.mapreduce.partition.stable_hash)
    monkeypatch.setattr(repro.mapreduce.partition, "stable_hash", map_hash)
    return estimate, map_hash


@pytest.fixture
def cluster(documents):
    cluster = LocalCluster(num_nodes=3, block_size=8 * 1024)
    cluster.hdfs.write_records("in", documents)
    return cluster


def key_shape(cluster):
    """(records, sum over map tasks of distinct keys, distinct keys)."""
    records = per_task = 0
    distinct = set()
    for split in cluster.hdfs.input_splits("in"):
        keys = [k for doc in cluster.hdfs.read_block_records(split.block_id) for k, _ in index_map(doc)]
        records += len(keys)
        per_task += len(set(keys))
        distinct.update(keys)
    assert per_task < records / 2, "the input must repeat keys within a task"
    return records, per_task, len(distinct)


def test_hybrid_one_pass_job(cluster, calls):
    estimate, map_hash = calls
    records, per_task, distinct = key_shape(cluster)
    cfg = OnePassConfig(
        mode="hybrid", map_side_combine=False, num_reducers=NUM_REDUCERS, batch=True
    )
    result = OnePassEngine(cluster).run(inverted_index_onepass_job("in", "out", config=cfg))
    assert result.counters[C.MAP_OUTPUT_RECORDS] == records
    assert result.counters[C.REDUCE_SPILLS] == 0  # re-read spills would be re-sized
    assert map_hash.n <= per_task
    # value at the scan buffer + value at the collect state, each key once
    # per map task and once per reducer table
    assert estimate.n <= 2 * records + per_task + distinct


@pytest.mark.parametrize("engine", [HadoopEngine, HOPEngine])
@pytest.mark.parametrize("batch", [False, True])
def test_sort_merge_engines(cluster, calls, engine, batch):
    estimate, map_hash = calls
    records, per_task, _ = key_shape(cluster)
    cfg = JobConfig(num_reducers=NUM_REDUCERS, batch=batch)
    result = engine(cluster).run(inverted_index_job("in", "out", config=cfg))
    assert result.counters[C.MAP_OUTPUT_RECORDS] == records
    assert map_hash.n <= per_task
    assert estimate.n <= records + per_task


def test_budgeted_incremental_job_folds_chunks_in_one_loop(clicks, monkeypatch):
    entered = Calls(IncrementalHash.update)
    monkeypatch.setattr(IncrementalHash, "update", lambda *args: entered(*args))
    cluster = LocalCluster(num_nodes=3, block_size=48 * 1024)
    cluster.hdfs.write_records("in", clicks)
    cfg = OnePassConfig(
        mode="incremental", map_side_combine=True, num_reducers=NUM_REDUCERS,
        reduce_memory_bytes=1 << 20, batch=True,
    )  # fmt: skip
    result = OnePassEngine(cluster).run(page_frequency_onepass_job("in", "out", config=cfg))
    assert result.counters[C.REDUCE_INPUT_RECORDS] > 150
    assert entered.n == 0


def package_calls(fn):
    """``call`` events over ``fn()`` per callee ``repro.<package>``, as
    ``benchmarks/counted.py`` keys them."""
    calls = collections.Counter()

    def profile(frame, event, arg):
        if event == "call":
            parts = frame.f_globals.get("__name__", "").split(".")
            if parts[0] == "repro":
                calls[".".join(parts[:2])] += 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


def collect_calls(clicks, num_reducers):
    """Calls of one ``onepass_map`` task over ``clicks``: decode, map fn,
    partition and combine under the shared byte budget, final flush."""
    cfg = OnePassConfig(num_reducers=num_reducers, map_side_combine=True)
    job = page_frequency_onepass_job("in", "out", config=cfg)
    spec = OnePassMapSpec(0, "n0", BinaryCodec().encode(clicks))
    kernel = get_kernel("onepass_map")
    return package_calls(lambda: kernel({"job": job, "codec": BinaryCodec()}, spec)).total()


def test_onepass_collect_cost_per_pair_does_not_grow_with_reducers():
    # The shared-budget check runs after every pair against a running total:
    # 64 reducers add a fixed cost per partition and nothing per pair.
    rng = random.Random(1313)
    clicks = [(i * 0.5, rng.randrange(5_000), f"/page/{rng.randrange(2_000)}")
              for i in range(10_000)]  # fmt: skip
    extra = [collect_calls(clicks[:n], 64) - collect_calls(clicks[:n], 4) for n in (5_000, 10_000)]
    assert extra[0] > 0
    assert extra[0] == extra[1]


@pytest.mark.parametrize("engine", [HadoopEngine, HOPEngine, OnePassEngine])
def test_an_uninstalled_sanitizer_costs_no_calls(clicks, engine):
    sanitizer = Sanitizer()  # constructed, deliberately not installed
    cluster = LocalCluster(num_nodes=3, block_size=48 * 1024)
    cluster.hdfs.write_records("in", clicks)
    if engine is OnePassEngine:
        cfg = OnePassConfig(num_reducers=NUM_REDUCERS)
        job = page_frequency_onepass_job("in", "out", config=cfg)
    else:
        job = page_frequency_job("in", "out", config=JobConfig(num_reducers=NUM_REDUCERS))
    calls = package_calls(lambda: engine(cluster).run(job))
    assert calls["repro.mapreduce"] > 0
    assert calls["repro.san"] == 0
    assert sanitizer.report.violations == []
