"""Encode once, decode once: frames and keys travel with unchanged records.

A map-output record is pickled when its spill is written and unpickled
where its value is needed (the final merge).  Every stage between that
only moves it — the map-side multi-spill merge, the fetch, the reduce-side
spill, each multi-pass merge pass — writes the carried frame bytes in the
order of the keys its writer kept.  The files, counters and disk
accounting must not be able to tell.
"""

from __future__ import annotations

import heapq
import pickle
import struct
from contextlib import contextmanager
from operator import itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exec import SerialExecutor
from repro.exec.kernels import HadoopReduceSpec
from repro.io.device import HDD_7200RPM
from repro.io.disk import LocalDisk
from repro.io.runio import Framed, RunWriter, stream_frames, write_run
from repro.io.serialization import BinaryCodec, encode_frames, iter_frames
from repro.mapreduce.api import JobConfig, MapReduceJob
from repro.mapreduce.counters import C, Counters
from repro.mapreduce.hop import HOPEngine
from repro.mapreduce.merge import MultiPassMerger, merge_sorted
from repro.mapreduce.recovery import PartitionLog
from repro.mapreduce.runtime import HadoopEngine, LocalCluster
from repro.mapreduce.shuffle import ShuffleService
from repro.mapreduce.sortmerge import SortMergeMapTask, SortMergeReduceTask

_KEY = itemgetter(0)
_MAP_TASKS = 3


def _collect(key, values):
    return [(key, list(values))]


def _job(*, combine=None, batch=True, **config) -> MapReduceJob:
    return MapReduceJob(
        "framing",
        lambda record: [record],
        _collect,
        combine_fn=combine,
        config=JobConfig(batch=batch, **config),
    )


@contextmanager
def counted_pickle():
    """Count the calls the framing layer makes to ``pickle.dumps``/``loads``."""
    calls = {"dumps": 0, "loads": 0}
    dumps, loads = pickle.dumps, pickle.loads

    def counting_dumps(*args, **kwargs):
        calls["dumps"] += 1
        return dumps(*args, **kwargs)

    def counting_loads(*args, **kwargs):
        calls["loads"] += 1
        return loads(*args, **kwargs)

    pickle.dumps, pickle.loads = counting_dumps, counting_loads
    try:
        yield calls
    finally:
        pickle.dumps, pickle.loads = dumps, loads


class _RecordingDisk(LocalDisk):
    """A disk that remembers every chunk appended to it (runs get deleted)."""

    def __init__(self) -> None:
        super().__init__(name="n0.hdd")
        self.appended: list[tuple[str, bytes]] = []

    def append(self, path: str, data: bytes) -> None:
        self.appended.append((path, bytes(data)))
        super().append(path, data)


def _sort_merge_pipeline(pairs, *, batch, keep_frames=True):
    """Map (multi-spill) → fetch → reduce spills → factor-2 merge cascade.

    Three map tasks each map ``pairs`` twice, spilling after every record,
    so every partition merges several spills; every fetched segment spills
    at the reducer, so three runs cascade through a factor-2 merger.
    Returns the disk (with every appended chunk) and the reduce output.
    ``keep_frames=False`` hands the reduce task decoded pairs, as the
    benchmark probes do.
    """
    job = _job(
        batch=batch, num_reducers=2, map_buffer_bytes=1, reduce_buffer_bytes=1, merge_factor=2
    )
    disk = _RecordingDisk()
    shuffle = ShuffleService({"n0": disk})
    for task_id in range(_MAP_TASKS):
        block = (pairs[task_id:] + pairs[:task_id]) * 2
        shuffle.register(SortMergeMapTask(job, task_id, "n0", disk).run(iter(block)))
    output = []
    for partition in range(2):
        rtask = SortMergeReduceTask(job, partition, "n0", disk)
        for seg in shuffle.fetch_all(partition):
            rtask.accept_segment(seg.run if keep_frames else list(seg.pairs), seg.nbytes)
        output += rtask.run()[0]
    return disk, output


# -- (a) carried frames are the bytes a fresh encode would produce ------------------

_shared = st.lists(st.integers(), max_size=3)
_scalars = st.one_of(
    st.integers(),
    st.integers(min_value=2**64, max_value=2**80),
    st.floats(allow_nan=False),
    st.none(),
    st.binary(max_size=12),
    st.text(max_size=8),
)
_values = st.one_of(
    st.recursive(
        _scalars,
        lambda inner: st.one_of(
            st.lists(inner, max_size=3),
            st.tuples(inner, inner),
            st.dictionaries(st.text(max_size=4), inner, max_size=3),
        ),
        max_leaves=8,
    ),
    _shared.map(lambda obj: (obj, obj, [obj])),  # the same object more than once
    st.text(min_size=1, max_size=6).map(lambda s: (s, "".join(list(s)))),  # equal, distinct
)
_pairs = st.lists(st.tuples(st.integers(0, 12), _values), min_size=1, max_size=30)
_set_pairs = st.lists(
    st.tuples(
        st.integers(0, 12),
        st.one_of(st.sets(st.integers(), max_size=8), st.frozensets(st.text(max_size=5), max_size=8)),
    ),
    min_size=1,
    max_size=20,
)


def _reference_groups(pairs):
    groups: dict = {}
    for key, value in pairs:
        groups.setdefault(key, []).append(value)
    return groups


class TestCarriedFramesAreByteIdentical:
    @pytest.mark.parametrize("batch", [False, True])
    @given(pairs=_pairs)
    @settings(max_examples=40, deadline=None)
    def test_every_chunk_written_equals_a_fresh_encode(self, batch, pairs):
        disk, output = _sort_merge_pipeline(pairs, batch=batch)
        stages = {path.split("/")[0] for path, _ in disk.appended}
        assert {"mapspill", "mapout", "reduce"} <= stages  # all three writers ran
        assert any(path.endswith(".merged") for path, _ in disk.appended)  # and a merge pass
        for path, chunk in disk.appended:
            assert chunk == encode_frames(list(iter_frames(chunk))), path
        # Every record arrives, grouped; values of a key keep no particular order.
        assert sorted(k for k, _ in output) == sorted(_reference_groups(pairs))
        assert sum(len(vs) for _, vs in output) == 2 * _MAP_TASKS * len(pairs)

    @given(pairs=_pairs)
    @settings(max_examples=25, deadline=None)
    def test_dropping_the_frames_writes_the_same_files(self, pairs):
        """The probes' ``accept_segment(list(seg.pairs), …)``: encoded, same bytes."""
        kept, out_kept = _sort_merge_pipeline(pairs, batch=True)
        dropped, out_dropped = _sort_merge_pipeline(pairs, batch=True, keep_frames=False)
        assert kept.appended == dropped.appended
        assert out_kept == out_dropped
        assert kept.stats == dropped.stats

    @given(pairs=_set_pairs)
    @settings(max_examples=25, deadline=None)
    def test_set_values_keep_length_and_content(self, pairs):
        """The documented exception: a re-pickled set may order its elements
        differently, so only sizes and decoded values are promised."""
        disk, output = _sort_merge_pipeline(pairs, batch=True)
        for path, chunk in disk.appended:
            decoded = list(iter_frames(chunk))
            assert len(chunk) == len(encode_frames(decoded)), path
        def canonical(values):
            return sorted(sorted(map(repr, value)) for value in values)

        got = {k: canonical(vs) for k, vs in output}
        want = {k: canonical(vs * 2 * _MAP_TASKS) for k, vs in _reference_groups(pairs).items()}
        assert got == want


# -- (b) the pickle-call budget ---------------------------------------------------


def _click_records(n=6000):
    return [(i * 0.5, (i * 7919) % 211, f"/page/{i % 37}") for i in range(n)]


def _run_hadoop(job, records, engine=HadoopEngine):
    cluster = LocalCluster(num_nodes=3, block_size=32 * 1024)
    cluster.hdfs.write_records("in", records)
    job.input_path, job.output_path = "in", "out"
    with counted_pickle() as calls:
        result = engine(cluster).run(job)
    counters = result.counters
    # The input decode and the output encode are pickle calls too.
    dumps = calls["dumps"] - counters[C.REDUCE_OUTPUT_RECORDS]
    loads = calls["loads"] - counters[C.MAP_INPUT_RECORDS]
    return dumps, loads, counters


def _budget_job(batch=True, reduce_buffer_bytes=12 * 1024):
    return MapReduceJob(
        "budget",
        lambda r: [(r[1], (r[0], r[2]))],
        _collect,
        config=JobConfig(
            num_reducers=2,
            batch=batch,
            map_buffer_bytes=48 * 1024,
            reduce_buffer_bytes=reduce_buffer_bytes,
            merge_factor=2,
        ),
    )


@contextmanager
def counted_merge_passes(monkeypatch):
    """Count the pickle calls made inside ``MultiPassMerger`` merge passes."""
    inside = {"passes": 0, "dumps": 0, "loads": 0}
    original = MultiPassMerger._merge_pass

    def counting_pass(self, fan_in):
        with counted_pickle() as calls:
            original(self, fan_in)
        inside["passes"] += 1
        inside["dumps"] += calls["dumps"]
        inside["loads"] += calls["loads"]

    monkeypatch.setattr(MultiPassMerger, "_merge_pass", counting_pass)
    yield inside


class TestPickleBudget:
    @pytest.mark.parametrize("batch", [False, True])
    def test_one_dumps_one_loads_per_record_between_map_and_reduce(self, batch):
        dumps, loads, counters = _run_hadoop(_budget_job(batch), _click_records())
        records = counters[C.MAP_OUTPUT_RECORDS]
        # The job really exercises every mover: map spills, reduce spills, passes.
        assert counters[C.MAP_SPILLS] > counters[C.MAP_TASKS]
        assert counters[C.REDUCE_SPILLS] > 2 and counters[C.MERGE_PASSES] > 2
        assert dumps <= 1.0 * records  # the map spill; 3.0 before frames were carried
        assert loads <= 1.0 * records  # the final merge; 3.0, then 2.0 before keys travelled

    def test_hop_snapshots_re_read_runs_without_decoding_them(self):
        # Default snapshot fractions: every snapshot re-reads the runs spilled
        # so far, and merges the pairs the reducer held for them.
        dumps, loads, counters = _run_hadoop(_budget_job(), _click_records(), HOPEngine)
        records = counters[C.MAP_OUTPUT_RECORDS]
        assert counters[C.SNAPSHOTS] == 3 * 2  # three fractions, two reducers
        assert counters[C.REDUCE_SPILLS] > 2 and counters[C.MERGE_PASSES] > 2
        assert dumps <= 1.0 * records  # the reduce-side spill
        assert loads <= 1.0 * records  # the final merge; more while snapshots decoded runs

    @pytest.mark.parametrize("engine", [HadoopEngine, HOPEngine])
    def test_a_merge_pass_unpickles_nothing(self, engine, monkeypatch):
        with counted_merge_passes(monkeypatch) as inside:
            _run_hadoop(_budget_job(), _click_records(), engine)
        assert inside["passes"] > 2
        assert inside["dumps"] == inside["loads"] == 0

    def test_a_combiner_job_costs_no_more_than_before(self):
        job = MapReduceJob(
            "budget-combine",
            lambda r: [(r[2], 1)],
            lambda k, vs: [(k, sum(vs))],
            combine_fn=lambda k, vs: [(k, sum(vs))],
            config=JobConfig(num_reducers=2, batch=True, map_buffer_bytes=24 * 1024),
        )
        dumps, loads, counters = _run_hadoop(job, _click_records())
        assert counters[C.MAP_SPILLS] > counters[C.MAP_TASKS]
        # Counted at the parent commit on this very job: 1331 dumps, 1553 loads
        # (222 of the loads were the phantom recount of each merged map output).
        assert dumps <= 1331
        assert loads <= 1553 - 222


# -- (c) same accounted op sequence for runs larger than one stream chunk -----------


def _old_stream_run(disk, path, chunk_size=1 << 20):
    """The reader this PR replaced, kept as the accounting reference."""
    header = struct.Struct("<I")
    buf = b""
    for chunk in disk.stream(path, chunk_size):
        buf += chunk
        offset = 0
        while offset + header.size <= len(buf):
            (length,) = header.unpack_from(buf, offset)
            end = offset + header.size + length
            if end > len(buf):
                break
            yield pickle.loads(buf[offset + header.size : end])
            offset = end
        buf = buf[offset:]
    if buf:
        raise ValueError(f"truncated trailing frame in {path}")


def _reference_merge(disk, paths, out_path):
    """Old k-way merge: decode every record, heap-merge, re-encode via RunWriter."""
    merged = heapq.merge(*[_old_stream_run(disk, p) for p in paths], key=_KEY)
    with RunWriter(disk, out_path) as writer:
        writer.write_all(merged)
    return writer.bytes_written


def _big_runs():
    """Four sorted runs; the three smallest are each > 1 MiB, 105k records in all."""
    runs = []
    for r, n in enumerate((35_000, 34_000, 36_000, 40_000)):
        runs.append([(f"user{(i * 37 + r) % 9973:05d}", (r, i, "x" * 12)) for i in range(n)])
        runs[-1].sort(key=_KEY)
    return runs


class TestAccountedOpSequence:
    def test_merge_pass_and_final_merge_match_the_reference_disk_stats(self):
        runs = _big_runs()
        new, ref = LocalDisk(HDD_7200RPM, name="new"), LocalDisk(HDD_7200RPM, name="ref")
        state = []
        for i, run in enumerate(runs):
            path = f"reduce/000/run-{i:05d}.in"
            for disk in (new, ref):
                nbytes = write_run(disk, path, run)
            state.append((path, nbytes))
        assert sorted(n for _, n in state)[0] > 1 << 20  # multi-chunk streams
        assert sum(n for _, n in state[:3]) > 2 << 20

        merger = MultiPassMerger(new, "reduce/000", factor=3)
        merger.adopt_state((state, len(state)))
        merged_new = list(merger.final_merge())  # one pass of 3, then 2 streams

        victims = sorted(state, key=itemgetter(1))[:3]
        out_path = "reduce/000/run-00004.merged"
        _reference_merge(ref, [p for p, _ in victims], out_path)
        for path, _ in victims:
            ref.delete(path)
        rest = [p for p, _ in sorted(state, key=itemgetter(1))[3:]] + [out_path]
        merged_ref = list(heapq.merge(*[_old_stream_run(ref, p) for p in rest], key=_KEY))

        assert merged_new == merged_ref
        assert new.peek(out_path) == ref.peek(out_path)
        assert new.stats == ref.stats  # all eight fields, random/sequential split included
        assert new.stats.write_ops > 4 + 1  # the pass flushed more than one 65 536-record chunk

    def test_map_side_merge_with_held_keys_matches_too(self):
        runs = _big_runs()[:3]
        new, ref = LocalDisk(HDD_7200RPM, name="new"), LocalDisk(HDD_7200RPM, name="ref")
        for i, run in enumerate(runs):
            for disk in (new, ref):
                write_run(disk, f"s{i}", run)
        with counted_pickle() as calls:
            streams = [
                stream_frames(new, f"s{i}", list(map(_KEY, run))) for i, run in enumerate(runs)
            ]
            keys = []
            nbytes = write_run(new, "out", Framed(merge_sorted(streams, keys), keys))
        assert calls == {"dumps": 0, "loads": 0}
        assert keys == sorted(k for run in runs for k, _ in run)
        assert nbytes == _reference_merge(ref, [f"s{i}" for i in range(3)], "out")
        assert new.peek("out") == ref.peek("out")
        assert new.stats == ref.stats


# -- (d) the contract benchmarks/e2e/probes.py relies on ----------------------------


class TestProbesContract:
    def test_plain_lists_specs_and_patched_merger_methods(self, monkeypatch):
        job = _job(num_reducers=2, map_buffer_bytes=2048, reduce_buffer_bytes=4096, merge_factor=3)
        records = [(i % 53, (i, "v" * (i % 7))) for i in range(1500)]
        blocks = [records[i : i + 300] for i in range(0, len(records), 300)]
        disk = LocalDisk(HDD_7200RPM, name="n0.hdd")
        shuffle = ShuffleService({"n0": disk})
        for task_id, block in enumerate(blocks):
            data = BinaryCodec().encode(block)
            shuffle.register(
                SortMergeMapTask(job, task_id, "n0", disk).run(iter(block), input_bytes=len(data))
            )

        called = {"add_run": 0, "final_merge": 0}
        for name in called:
            original = getattr(MultiPassMerger, name)

            def spy(self, *args, _name=name, _original=original, **kwargs):
                called[_name] += 1
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(MultiPassMerger, name, spy)  # class level, as the probes patch

        specs, direct = [], []
        for partition in range(2):
            fetched = shuffle.fetch_all(partition)
            rtask = SortMergeReduceTask(job, partition, "n0", disk)
            for seg in fetched:
                rtask.accept_segment(list(seg.pairs), seg.nbytes)  # frames dropped
            memory, memory_bytes, (runs, seq) = rtask.export_ingested()
            assert all(type(segment) is list for segment in memory)
            specs.append(
                HadoopReduceSpec(partition, "n0", disk.profile, disk.name, list(memory),
                                 memory_bytes, runs, seq, {p: disk.peek(p) for p, _ in runs})
            )  # fmt: skip
            direct += rtask.run()[0]
        assert called["add_run"] > 0 and called["final_merge"] == 2

        clones = pickle.loads(pickle.dumps(specs))  # specs stay picklable and comparable
        assert clones == specs
        context = {"job": job, "codec": BinaryCodec(), "trace": False}
        with SerialExecutor().session(context) as session:
            results = session.run_batch("hadoop_reduce", clones)
        assert [r for res in results for r in res.output] == direct
        assert sorted(k for k, _ in direct) == sorted({k for k, _ in records})
        assert sum(len(vs) for _, vs in direct) == len(records)

    def test_a_spec_with_fetched_segments_round_trips_as_frames(self):
        job = _job(num_reducers=1, map_buffer_bytes=4096, reduce_buffer_bytes=1 << 20)
        disk = LocalDisk(name="n0.hdd")
        shuffle = ShuffleService({"n0": disk})
        records = [(i % 17, i) for i in range(400)]
        shuffle.register(SortMergeMapTask(job, 0, "n0", disk).run(iter(records)))
        rtask = SortMergeReduceTask(job, 0, "n0", disk)
        for seg in shuffle.fetch_all(0):
            rtask.accept_segment(seg.run, seg.nbytes)
        memory, memory_bytes, (runs, seq) = rtask.export_ingested()
        spec = HadoopReduceSpec(0, "n0", disk.profile, disk.name, memory, memory_bytes, runs, seq, {})
        blob = pickle.dumps(spec, protocol=pickle.HIGHEST_PROTOCOL)
        clone = pickle.loads(blob)
        assert clone == spec and type(clone.memory[0]) is type(memory[0])
        framed = sum(len(segment.data) for segment in memory)
        keys = sum(len(pickle.dumps(segment.keys, protocol=5)) for segment in memory)
        assert len(blob) < framed + keys + 1024  # frames and keys: no decoded values beside them

    def test_the_kernel_gives_the_same_output_with_run_keys_and_without(self):
        """The probes build a 9-argument spec: no run keys, passes decode them."""
        job = _budget_job(reduce_buffer_bytes=16 * 1024)
        disk = LocalDisk(HDD_7200RPM, name="n0.hdd")
        shuffle = ShuffleService({"n0": disk})
        records = _click_records(3000)
        for task_id in range(8):
            block = records[task_id::8]
            shuffle.register(SortMergeMapTask(job, task_id, "n0", disk).run(iter(block)))
        rtask = SortMergeReduceTask(job, 0, "n0", disk)
        for seg in shuffle.fetch_all(0):
            rtask.accept_segment(seg.run, seg.nbytes)
        memory, memory_bytes, (runs, seq) = rtask.export_ingested()
        files = {p: disk.peek(p) for p, _ in runs}
        assert memory and len(runs) == 2  # the kernel's spill makes 3 runs: one pass
        nine = (0, "n0", disk.profile, disk.name, memory, memory_bytes, runs, seq, files)
        bare, keyed = HadoopReduceSpec(*nine), HadoopReduceSpec(*nine, rtask.run_keys)
        assert bare.run_keys is None and set(keyed.run_keys) == {p for p, _ in runs}
        context = {"job": job, "codec": BinaryCodec(), "trace": False}
        results = {}
        for name, spec in (("bare", bare), ("keyed", keyed)):
            with counted_pickle() as calls, SerialExecutor().session(context) as session:
                [results[name]] = session.run_batch("hadoop_reduce", [spec])
            results[name + ".loads"] = calls["loads"]
        assert results["keyed"].counters[C.MERGE_PASSES] > 0  # the kernel made a pass
        assert results["bare"].output == results["keyed"].output
        assert results["bare"].disk.stats == results["keyed"].disk.stats
        bare_counters, keyed_counters = (
            [(k, v) for k, v in results[name].counters.as_dict().items() if not k.startswith("time.")]
            for name in ("bare", "keyed")
        )
        assert bare_counters == keyed_counters
        # With the keys the final merge is the only decode; without, passes decode too.
        assert results["keyed.loads"] < results["bare.loads"]


# -- satellites -------------------------------------------------------------------


class TestCombinedMultiSpillMapOutput:
    def test_no_phantom_read_of_the_merged_segment(self):
        """With a combiner and more than one spill the merged segment used to
        be re-read through the accounted disk just to count its records."""
        job = _job(
            combine=lambda k, vs: [(k, sum(vs))], num_reducers=2, map_buffer_bytes=2048
        )
        disk = LocalDisk(HDD_7200RPM, name="n0.hdd")
        task = SortMergeMapTask(job, 0, "n0", disk)
        output = task.run(iter([(i % 97, 1) for i in range(3000)]))
        counters = task.counters
        assert counters[C.MAP_SPILLS] > 1
        # The only reads of a map task are its merge's reads of the spills.
        assert disk.stats.bytes_read == counters[C.MERGE_READ_BYTES] == counters[C.MAP_SPILL_BYTES]
        for segment in output.segments.values():
            assert segment.records == len(list(iter_frames(disk.peek(segment.path))))
        assert output.total_records == 97  # every key once, in exactly one partition


class TestPartitionLogEncodesOnce:
    def test_one_encode_per_chunk_not_per_replica(self):
        disks = [("n0", LocalDisk(name="n0.hdd")), ("n1", LocalDisk(name="n1.hdd"))]
        counters = Counters()
        log = PartitionLog(3, disks, counters)
        pairs = [(i, "v" * (i % 5)) for i in range(200)]
        with counted_pickle() as calls:
            log.append(pairs, 1234)
        assert calls["dumps"] == len(pairs)  # was len(pairs) * replication
        path = "faultlog/p003/c000001"
        framed = encode_frames(pairs)
        assert disks[0][1].peek(path) == disks[1][1].peek(path) == framed
        assert counters[C.LOG_BYTES] == 2 * len(framed)
        assert [d.stats.write_ops for _, d in disks] == [1, 1]
        assert list(log.replay()) == [(1, pairs, len(framed))]
