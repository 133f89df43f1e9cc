"""Call budgets of the byte accounting: a record is sized and routed once.

Counts, not timings — they repeat exactly.  ``estimate_size`` and
``estimate_sizes`` are wrapped by counters in every ``repro`` module that
binds them, their own module included, so a value sized one at a time
counts wherever the call is made (the inverted index's keys and values
are flat, so the estimator never recurses on them).  The map side's
``stable_hash`` is wrapped where the partitioner binds it.  A job runs
on the serial executor, in this process.

Before the key-facts memo and the growth-reporting states every map-output
record cost one ``stable_hash`` and one key estimate, and every fold on the
reduce side re-measured its state.  Before the batch sizer every value was
sized once per pair at the map-side buffer and again at a collect state;
now a value costs no ``estimate_size`` call, only its block's share of
one ``estimate_sizes`` call.

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
import repro.io.serialization
import repro.mapreduce.partition
from repro.core.aggregates import AvgState, CountState, SumCountState, SumState
from repro.core.engine import OnePassConfig, OnePassEngine
from repro.core.hash_tables import SpilledState
from repro.core.incremental import IncrementalHash, count_threshold_policy
from repro.exec.base import get_kernel
from repro.exec.kernels import OnePassMapSpec
from repro.io.serialization import BinaryCodec
from repro.mapreduce.api import JobConfig
from repro.mapreduce.counters import C
from repro.mapreduce.faults import FaultPlan
from repro.mapreduce.hop import HOPEngine
from repro.mapreduce.runtime import HadoopEngine, LocalCluster
from repro.mapreduce.sortmerge import MAP_SLICE_RECORDS
from repro.workloads.inverted_index import (
    index_map,
    inverted_index_job,
    inverted_index_onepass_job,
)
from repro.san import Sanitizer
from repro.workloads.page_frequency import page_frequency_job, page_frequency_onepass_job
from repro.workloads.per_user_count import per_user_count_onepass_job

NUM_REDUCERS = 3


class Calls:
    def __init__(self, fn):
        self.fn = fn
        self.n = 0

    def __call__(self, *args):
        self.n += 1
        return self.fn(*args)


def wrap_everywhere(monkeypatch, name):
    """Wrap ``repro.io.serialization.<name>`` in every module bound to it."""
    original = getattr(repro.io.serialization, name)
    counter = Calls(original)
    for module in list(sys.modules.values()):
        repro_module = getattr(module, "__name__", "").startswith("repro")
        if repro_module and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counter)
    return counter


@pytest.fixture
def calls(monkeypatch):
    estimate = wrap_everywhere(monkeypatch, "estimate_size")
    sizer = wrap_everywhere(monkeypatch, "estimate_sizes")
    # The map side's binding only: hybrid hash's spill buckets bind their own.
    map_hash = Calls(repro.mapreduce.partition.stable_hash)
    monkeypatch.setattr(repro.mapreduce.partition, "stable_hash", map_hash)
    return estimate, sizer, map_hash


@pytest.fixture
def cluster(documents):
    cluster = LocalCluster(num_nodes=3, block_size=8 * 1024)
    cluster.hdfs.write_records("in", documents)
    return cluster


def key_shape(cluster):
    """(records, sum over map tasks of distinct keys, distinct keys, map
    slices: the blocks a map task's collect loop takes)."""
    records = per_task = slices = 0
    distinct = set()
    for split in cluster.hdfs.input_splits("in"):
        docs = list(cluster.hdfs.read_block_records(split.block_id))
        keys = [k for doc in docs for k, _ in index_map(doc)]
        records += len(keys)
        per_task += len(set(keys))
        distinct.update(keys)
        slices += -(-len(docs) // MAP_SLICE_RECORDS)
    assert per_task < records / 2, "the input must repeat keys within a task"
    return records, per_task, len(distinct), slices


def test_hybrid_one_pass_job(cluster, calls):
    estimate, sizer, map_hash = calls
    records, per_task, distinct, slices = key_shape(cluster)
    cfg = OnePassConfig(
        mode="hybrid", map_side_combine=False, num_reducers=NUM_REDUCERS, batch=True
    )
    result = OnePassEngine(cluster).run(inverted_index_onepass_job("in", "out", config=cfg))
    assert result.counters[C.MAP_OUTPUT_RECORDS] == records
    assert result.counters[C.REDUCE_SPILLS] == 0  # re-read spills would be re-sized
    assert map_hash.n <= per_task
    # each key once per map task and once per reducer table; no value
    assert estimate.n <= per_task + distinct
    # values: once per map slice and once per pushed chunk (one per reducer)
    assert sizer.n <= slices + NUM_REDUCERS


@pytest.mark.parametrize("engine", [HadoopEngine, HOPEngine])
@pytest.mark.parametrize("batch", [False, True])
def test_sort_merge_engines(cluster, calls, engine, batch):
    estimate, sizer, map_hash = calls
    records, per_task, _, slices = key_shape(cluster)
    cfg = JobConfig(num_reducers=NUM_REDUCERS, batch=batch)
    result = engine(cluster).run(inverted_index_job("in", "out", config=cfg))
    assert result.counters[C.MAP_OUTPUT_RECORDS] == records
    assert map_hash.n <= per_task
    assert estimate.n <= per_task
    assert sizer.n <= slices


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


@pytest.mark.parametrize(
    "job", ["pagefreq-incremental", "peruser-hotset", "pagefreq-emit", "peruser-checkpoint"]
)
def test_a_sum_job_never_enters_sum_state_update_or_merge(clicks, monkeypatch, job):
    # Map-side combine, then incremental hash or a hot set small enough to
    # spill cold pairs, whose finish replays them through hybrid hash; an
    # emit policy; reducers that die once and restore a checkpoint.  A SUM
    # table holds totals: it builds no SumState and ships no SpilledState.
    methods = {
        "update": (SumState, "update"), "merge": (SumState, "merge"),
        "SumState": (SumState, "__init__"), "SpilledState": (SpilledState, "__init__"),
    }  # fmt: skip
    entered = {name: Calls(getattr(cls, method)) for name, (cls, method) in methods.items()}
    for name, (cls, method) in methods.items():
        monkeypatch.setattr(cls, method, lambda *args, c=entered[name]: c(*args))
    cluster = LocalCluster(num_nodes=3, block_size=48 * 1024)
    cluster.hdfs.write_records("in", clicks)
    incremental = OnePassConfig(
        mode="incremental", map_side_combine=True, num_reducers=NUM_REDUCERS,
        reduce_memory_bytes=1 << 20,
    )  # fmt: skip
    if job == "pagefreq-incremental":
        result = OnePassEngine(cluster).run(
            page_frequency_onepass_job("in", "out", config=incremental)
        )
        assert result.counters[C.COMBINE_OUTPUT_RECORDS] > 150
    elif job == "pagefreq-emit":
        spec = page_frequency_onepass_job("in", "out", config=incremental)
        spec.emit_policy = count_threshold_policy(20)
        result = OnePassEngine(cluster).run(spec)
        assert result.counters[C.EARLY_EMITS] > 0
        early = result.extras["early_emitted"]
        assert all(type(total) is int and total >= 20 for _, total in early)
    elif job == "peruser-checkpoint":
        cfg = OnePassConfig(mode="incremental", map_side_combine=True, num_reducers=2)
        engine = OnePassEngine(
            cluster, fault_plan=FaultPlan(reduce_failures={0: 1, 1: 1}), checkpoint_interval=3
        )
        result = engine.run(per_user_count_onepass_job("in", "out", config=cfg))
        assert result.counters[C.CHECKPOINT_RESTORES] > 0
    else:
        cfg = OnePassConfig(
            mode="hotset", hotset_capacity=16, map_side_combine=True, num_reducers=NUM_REDUCERS
        )
        result = OnePassEngine(cluster).run(per_user_count_onepass_job("in", "out", config=cfg))
        assert result.counters[C.HOT_MISSES] > 0 and result.counters[C.REDUCE_SPILLS] > 0
    field = 2 if job.startswith("pagefreq") else 1
    expected = collections.Counter(click[field] for click in clicks)
    assert sorted(cluster.hdfs.read_records("out")) == sorted(expected.items())
    assert {name: c.n for name, c in entered.items()} == dict.fromkeys(entered, 0)


def test_every_fixed_size_state_reports_zero_growth():
    # The fixed-size fold never reads the growth such a state returns.
    fixed = [
        cls for cls in vars(repro.core.aggregates).values()
        if isinstance(cls, type) and hasattr(cls, "SIZE_BYTES")
    ]  # fmt: skip
    assert {CountState, SumState, SumCountState, AvgState} <= set(fixed)
    for cls in fixed:
        state, other = cls(), cls()
        assert [state.update(v) for v in (1, 2.5, -3)] == [0, 0, 0]
        other.update(7)
        assert state.merge(other) == 0 == state.merge(cls())
        assert state.size_bytes() == cls.SIZE_BYTES


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
