"""The `JobDriver` seam: one lifecycle under three engines (and a toy fourth)."""

import dataclasses
import gc
from contextlib import contextmanager

import pytest

from repro.core.engine import OnePassConfig, OnePassEngine, OnePassJob
from repro.exec.kernels import OnePassMapSpec
from repro.mapreduce.chain import ChainStage, run_chain
from repro.mapreduce.counters import Counters
from repro.mapreduce.driver import JobDriver
from repro.mapreduce.faults import FaultPlan
from repro.mapreduce.hop import HOPEngine
from repro.mapreduce.journal import CoordinatorCrash, JobJournal
from repro.mapreduce.runtime import HadoopEngine, LocalCluster
from repro.obs.tracer import Tracer
from repro.testing import ChaosTarget, run_crashpoint_sweep
from repro.workloads import (
    inverted_index_job,
    inverted_index_onepass_job,
    page_frequency_job,
    page_frequency_onepass_job,
    per_user_count_job,
    per_user_count_onepass_job,
    sessionization_job,
    sessionization_onepass_job,
)
from repro.workloads.clickstream import ClickStreamConfig, generate_clicks
from repro.workloads.documents import DocumentConfig, generate_documents

# 8 000 clicks fill four 64 KiB blocks: ``kill_plan`` kills map task 2.
CLICKS = list(
    generate_clicks(ClickStreamConfig(num_clicks=8_000, num_users=300, num_urls=100, seed=42))
)
DOCS = list(generate_documents(DocumentConfig(num_docs=80, mean_doc_words=60, seed=3)))

ENGINES = {"hadoop": HadoopEngine, "hop": HOPEngine, "onepass": OnePassEngine}
WORKLOADS = {
    "sessionization": (CLICKS, sessionization_job, sessionization_onepass_job),
    "page-frequency": (CLICKS, page_frequency_job, page_frequency_onepass_job),
    "per-user-count": (CLICKS, per_user_count_job, per_user_count_onepass_job),
    "inverted-index": (DOCS, inverted_index_job, inverted_index_onepass_job),
}


def make_cluster(records=CLICKS, **kwargs):
    cluster = LocalCluster(num_nodes=4, block_size=64 * 1024, **kwargs)
    cluster.hdfs.write_records("in", records)
    return cluster


def make_job(workload, engine, out="out"):
    _records, mr_job, onepass_job = WORKLOADS[workload]
    return (onepass_job if engine == "onepass" else mr_job)("in", out)


def output_of(cluster, path="out"):
    return list(cluster.hdfs.read_records(path))


def injectors(cluster):
    return [disk.fault_injector for node in cluster.nodes.values() for disk in node.disks.values()]


# -- (a) one lifecycle: the journal skeleton ------------------------------------


class TestJournalSkeleton:
    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_clean_run_skeleton_is_identical_across_engines(self, workload, tmp_path):
        skeletons = {}
        for engine, engine_cls in ENGINES.items():
            journal = JobJournal(tmp_path / engine)
            engine_cls(make_cluster(WORKLOADS[workload][0]), journal=journal).run(
                make_job(workload, engine)
            )
            skeletons[engine] = [
                (rec.kind, rec.fields.get("task"), rec.fields.get("partition"))
                for rec in journal.records
            ]
        kinds = [kind for kind, _task, _partition in skeletons["hadoop"]]
        assert kinds[0] == "job-spec" and kinds[-1] == "output-commit"
        assert {"task-grant", "map-commit", "shuffle-commit", "reduce-commit"} <= set(kinds)
        assert skeletons["hop"] == skeletons["hadoop"]
        assert skeletons["onepass"] == skeletons["hadoop"]


# -- (b) an engine is only its hooks: a toy fourth engine -----------------------


class _DictReduceTask:
    def __init__(self):
        self.groups = {}
        self.counters = Counters()

    def accept(self, pairs):
        for key, value in pairs:
            self.groups.setdefault(key, []).append(value)


class ToyEngine(JobDriver):
    """In-memory dict group-by over the registered one-pass map kernel.

    No disk, no shuffle service, no knowledge of the journal: just the
    hooks.  Delivered chunks are remembered so a lost reduce task can be
    rebuilt by re-feeding them.
    """

    name = "toy"
    map_kernel = "onepass_map"

    def __init__(self, cluster, *, fault_plan=None, journal=None):
        super().__init__(
            cluster, map_slots=2, fault_plan=fault_plan, speculation=None,
            executor=None, tracer=None, journal=journal,
        )  # fmt: skip

    def _open(self, run):
        run.delivered = {partition: [] for partition in run.reduce_tasks}

    def _map_spec(self, run, task_id, node, data):
        return OnePassMapSpec(task_id, node, data)

    def _commit_map(self, run, task_id, node, res):
        for partition, pairs, _nbytes in res.chunks:
            run.delivered[partition].append(pairs)
            run.reduce_tasks[partition].accept(pairs)
        return sum(nbytes for _, _, nbytes in res.chunks)

    def _new_reduce_task(self, run, partition, node):
        return _DictReduceTask()

    def _rebuild_reduce_task(self, run, partition, node):
        task = _DictReduceTask()
        for pairs in run.delivered[partition]:
            task.accept(pairs)
        return task

    def _finish_reduce(self, run, partition):
        groups = run.reduce_tasks[partition].groups
        reduce_fn = run.job.reduce_fn
        return [rec for key in sorted(groups) for rec in reduce_fn(key, iter(groups[key]))]


def toy_job():
    return OnePassJob(
        "clicks-per-user",
        lambda click: [(click[1], 1)],
        reduce_fn=lambda user, ones: [(user, sum(ones))],
        config=OnePassConfig(num_reducers=3, mode="hybrid"),
        input_path="in",
        output_path="out",
    )


def reference_counts():
    counts = {}
    for _ts, user, _url in CLICKS:
        counts[user] = counts.get(user, 0) + 1
    return sorted(counts.items())


class TestToyEngine:
    def test_output_matches_reference_group_by(self):
        cluster = make_cluster()
        result = ToyEngine(cluster).run(toy_job())
        assert sorted(output_of(cluster)) == reference_counts()
        assert result.engine == "toy"
        assert result.output_records == len(reference_counts())

    def test_recovers_from_killed_attempts_and_a_node_crash(self):
        cluster = make_cluster(replication=2)
        plan = FaultPlan(
            map_failures={1: 2}, reduce_failures={0: 1}, node_crashes={"node01": 2}
        )
        result = ToyEngine(cluster, fault_plan=plan).run(toy_job())
        assert sorted(output_of(cluster)) == reference_counts()
        assert result.counters["map.task.retries"] == 2
        assert result.counters["reduce.task.retries"] == 1
        assert result.counters["recovery.node.crashes"] == 1

    def test_resumes_from_a_crash_at_every_journal_site(self, tmp_path):
        target = ChaosTarget(
            name="toy",
            make_cluster=make_cluster,
            make_engine=lambda cluster, journal: ToyEngine(cluster, journal=journal),
            make_job=toy_job,
        )
        report = run_crashpoint_sweep(target, str(tmp_path), mode="exhaustive")
        assert report.sites >= 5
        assert report.crashes == report.resumes == report.replays == 2 * report.sites

    def test_complete_journal_replays_without_appending(self, tmp_path):
        first = make_cluster()
        ToyEngine(first, journal=JobJournal(tmp_path)).run(toy_job())
        journal = JobJournal(tmp_path)
        before = len(journal.records)
        again = make_cluster()
        result = ToyEngine(again, journal=journal).run(toy_job())
        assert output_of(again) == output_of(first)
        assert len(JobJournal(tmp_path).records) == before
        assert result.counters["journal.appends"] == 0


# -- (c) the one JobResult ------------------------------------------------------


class TestResultShape:
    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_complete_journal_replay_has_the_fresh_runs_shape(self, engine, tmp_path):
        workload = "per-user-count"
        fresh = ENGINES[engine](make_cluster(), journal=JobJournal(tmp_path)).run(
            make_job(workload, engine)
        )
        replayed = ENGINES[engine](make_cluster(), journal=JobJournal(tmp_path)).run(
            make_job(workload, engine)
        )
        assert sorted(replayed.extras) == sorted(fresh.extras)
        assert replayed.extras.get("mode") == fresh.extras.get("mode")
        assert isinstance(replayed.snapshots, list)
        assert replayed.phase_times == {"map": 0.0, "reduce": 0.0}
        assert sorted(fresh.phase_times) == ["map", "reduce"]
        assert replayed.schedule == fresh.schedule
        assert replayed.output_records == fresh.output_records
        assert (replayed.engine, replayed.job_name) == (fresh.engine, fresh.job_name)

    def test_onepass_counts_pushed_bytes_on_the_fault_path_too(self):
        # An empty plan takes the one-task-at-a-time path without firing a
        # fault: the same chunks cross the network as in the clean run.
        clean = OnePassEngine(make_cluster()).run(make_job("sessionization", "onepass"))
        planned = OnePassEngine(make_cluster(), fault_plan=FaultPlan()).run(
            make_job("sessionization", "onepass")
        )
        assert planned.network_bytes == clean.network_bytes > 0


# -- the disk-fault injector is scoped to its run --------------------------------


def spilling_sessionization(out="out"):
    job = sessionization_onepass_job("in", out)
    job.config.reduce_memory_bytes = 32 * 1024  # the hybrid hash spills under onepass/
    return job


class TestInjectorScope:
    def test_fault_plan_of_one_run_does_not_tear_the_next(self):
        reference = make_cluster()
        OnePassEngine(reference).run(spilling_sessionization())

        cluster = make_cluster()
        plan = FaultPlan(torn_writes={"onepass/": 1})
        HOPEngine(cluster, fault_plan=plan).run(sessionization_job("in", "hop-out"))
        assert injectors(cluster) == [None] * len(injectors(cluster))
        OnePassEngine(cluster).run(spilling_sessionization())
        assert plan.torn_writes_injected == 0
        assert output_of(cluster) == output_of(reference)

    def test_run_chain_stage_does_not_inherit_the_previous_stages_faults(self):
        reference = make_cluster()
        OnePassEngine(reference).run(spilling_sessionization())

        cluster = make_cluster()
        plan = FaultPlan(torn_writes={"onepass/": 1})
        run_chain(
            cluster,
            [
                ChainStage(
                    sessionization_job("in", "hop-out"), "hop", {"fault_plan": plan}
                ),
                ChainStage(spilling_sessionization(), "onepass"),
            ],
            keep_intermediates=True,
        )
        assert plan.torn_writes_injected == 0
        assert output_of(cluster) == output_of(reference)

    @pytest.mark.parametrize("engine", ["hop", "onepass"])
    def test_injector_restored_when_the_run_raises(self, engine, tmp_path):
        cluster = make_cluster()
        sentinel = FaultPlan()  # whatever was installed before must come back
        for node in cluster.nodes.values():
            node.intermediate_disk.fault_injector = sentinel
        before = injectors(cluster)
        plan = FaultPlan(short_reads={"faultlog/": 1})
        journal = JobJournal(tmp_path, crash_at=4)
        with pytest.raises(CoordinatorCrash):
            ENGINES[engine](cluster, fault_plan=plan, journal=journal).run(
                make_job("per-user-count", engine)
            )
        assert injectors(cluster) == before


# -- a plan is checked against the job before any work ---------------------------


class TestPlanTargets:
    """A plan aimed at a node, task or partition the job lacks is refused up
    front — not a bare ``list.remove`` mid-job, not a fault that never fires."""

    BAD_PLANS = {
        "node_crashes['node9']": lambda: FaultPlan(node_crashes={"node9": 1}),
        "slow_nodes['nodeXX']": lambda: FaultPlan(slow_nodes={"nodeXX": 2.0}),
        "map_failures[99]": lambda: FaultPlan(map_failures={99: 1}),
        "reduce_failures[2]": lambda: FaultPlan(reduce_failures={2: 1}),
        "shuffle_failures[(0, 7)]": lambda: FaultPlan(shuffle_failures={(0, 7): 1}),
    }

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_unknown_target_is_a_value_error_before_any_work(self, engine):
        for entry, make_plan in self.BAD_PLANS.items():
            cluster = make_cluster()
            before = cluster.disk_stats()
            with pytest.raises(ValueError) as err:
                ENGINES[engine](cluster, fault_plan=make_plan()).run(
                    make_job("per-user-count", engine)
                )
            message = str(err.value)
            assert message.startswith(f"{engine}: fault plan entry {entry} "), message
            assert "node00" in message or "0.." in message  # the valid range
            assert cluster.disk_stats() == before  # nothing ran

    def test_every_in_range_target_is_accepted(self):
        cluster = make_cluster(replication=2)
        tasks = len(cluster.hdfs.input_splits("in"))
        plan = FaultPlan(
            map_failures={tasks - 1: 1},
            reduce_failures={1: 1},
            shuffle_failures={(0, 1): 1},
            slow_nodes={"node03": 2.0},
            node_crashes={"node00": tasks},
        )
        HadoopEngine(cluster, fault_plan=plan).run(make_job("per-user-count", "hadoop"))
        assert plan.attempts_of(tasks - 1) >= 2


# -- the cyclic collector is paused for each job ----------------------------------


@contextmanager
def collections():
    """Log ``(generation, objects collected)`` per collection while open."""
    log = []

    def hook(phase, info):
        if phase == "stop":
            log.append((info["generation"], info["collected"]))

    gc.callbacks.append(hook)
    try:
        yield log
    finally:
        gc.callbacks.remove(hook)


def kill_plan():
    return FaultPlan(map_failures={1: 1, 2: 2}, reduce_failures={0: 1})


def run_counting(engine, plan=None, executor=None, tracer=None):
    """``gc.collect()``, then one per-user-count run; returns its collections."""
    cluster = make_cluster()
    job = make_job("per-user-count", engine)
    gc.collect()
    with collections() as log:
        ENGINES[engine](cluster, fault_plan=plan, executor=executor, tracer=tracer).run(job)
    return log


class _Cyclic:
    """A map fn that leaves one self-referencing list per record behind."""

    def __init__(self, map_fn):
        self.map_fn = map_fn

    def __call__(self, record):
        loop = []
        loop.append(loop)
        return self.map_fn(record)


def _failing_map(record):
    raise ZeroDivisionError("map fn failed")


@pytest.fixture
def collector_enabled():
    gc.enable()
    yield
    gc.enable()  # whatever a failing test left behind


@pytest.fixture(scope="module")
def warm():
    """The first job in a process leaves import-time objects; run one of
    each engine first so the exit collections below see only the job."""
    for engine in ENGINES:
        run_counting(engine, kill_plan(), "processes:2", Tracer())


@pytest.mark.usefixtures("collector_enabled")
class TestCollectorPaused:
    @pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
    @pytest.mark.parametrize("plan", [None, kill_plan], ids=["no-plan", "kill"])
    @pytest.mark.parametrize("executor", ["serial", "processes:2"])
    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_a_run_leaves_no_cycles(self, warm, engine, executor, plan, traced):
        log = run_counting(
            engine, plan and plan(), executor, Tracer() if traced else None
        )
        assert log == [(0, 0)]  # one young collection, at exit, freeing nothing

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_cycles_the_map_fn_leaves_are_collected_at_exit(self, engine):
        cluster = make_cluster()
        job = make_job("per-user-count", engine)
        job = dataclasses.replace(job, map_fn=_Cyclic(job.map_fn))
        gc.collect()
        with collections() as log:
            ENGINES[engine](cluster).run(job)
        [(generation, collected)] = log
        assert generation == 0 and collected == len(CLICKS)
        assert gc.garbage == []

    def test_enabled_before_is_enabled_after_with_one_young_collection(self):
        cluster, job = make_cluster(), make_job("per-user-count", "hadoop")
        gc.collect()
        before = [g["collections"] for g in gc.get_stats()]
        HadoopEngine(cluster).run(job)
        after = [g["collections"] for g in gc.get_stats()]
        assert gc.isenabled()
        assert [b - a for a, b in zip(before, after)] == [1, 0, 0]

    def test_disabled_before_stays_disabled_and_uncollected(self):
        cluster, job = make_cluster(), make_job("per-user-count", "onepass")
        gc.disable()
        with collections() as log:
            OnePassEngine(cluster).run(job)
        assert not gc.isenabled()
        assert log == []

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_restored_after_the_map_fn_raises(self, engine):
        job = dataclasses.replace(make_job("per-user-count", engine), map_fn=_failing_map)
        with pytest.raises(ZeroDivisionError):
            ENGINES[engine](make_cluster()).run(job)
        assert gc.isenabled()

    def test_restored_after_a_process_pool_run(self):
        cluster = make_cluster()
        HOPEngine(cluster, executor="processes:2").run(make_job("per-user-count", "hop"))
        assert gc.isenabled()
        assert sorted(output_of(cluster)) == reference_counts()
