"""The job lifecycle, written once, under all three engines.

Table III of the paper separates Hadoop, MapReduce Online and the one-pass
platform on three axes only — group-by implementation (sort-merge vs
hash), shuffle discipline (pull vs push) and reduce strategy (blocking vs
incremental).  Everything else a job run does is the same sequence, and
:meth:`JobDriver.run` is its single executable form::

    schedule -> journal resume -> map waves -> shuffle commit
             -> reduce (commit, then emit) -> output commit

The driver owns the *policy*: the order of coordinator decisions and
journal appends, the retry / node-crash protocol, the phase spans, and the
one :class:`JobResult`.  An engine is a :class:`JobDriver` subclass that
fills in the hooks below ``# -- engine hooks`` — the executable form of
the three axes — and never sees the resume protocol.
:class:`PushShuffleDriver` adds what the two push engines share: the
replicated delivery logs that make a push shuffle recoverable.
"""

from __future__ import annotations

import gc
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterator

from repro.exec import resolve_executor
from repro.hdfs.filesystem import InputSplit
from repro.io.disk import LocalDisk
from repro.mapreduce.counters import C, Counters
from repro.mapreduce.faults import FaultPlan
from repro.mapreduce.journal import (
    K_JOB_SPEC,
    K_MAP_COMMIT,
    K_OUTPUT_COMMIT,
    K_REDUCE_COMMIT,
    K_SHUFFLE_COMMIT,
    K_TASK_GRANT,
    NULL_JOURNAL,
    emit_committed_output,
    job_fingerprint,
    output_digest,
)
from repro.mapreduce.recovery import PartitionLog, RecoveryManager, SpeculationPolicy
from repro.mapreduce.scheduler import ScheduleStats, TaskAssignment, WaveScheduler
from repro.obs.log import get_logger
from repro.obs.tracer import NULL_TRACER, byte_cost

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mapreduce.runtime import LocalCluster

__all__ = ["JobResult", "JobRun", "JobDriver", "PushShuffleDriver"]


@dataclass(slots=True)
class JobResult:
    """Outcome of one engine run: counters, timings and output location."""

    job_name: str
    engine: str
    output_path: str
    counters: Counters
    wall_time: float
    phase_times: dict[str, float] = field(default_factory=dict)
    schedule: ScheduleStats | None = None
    network_bytes: int = 0
    output_records: int = 0
    snapshots: list[Any] = field(default_factory=list)
    extras: dict[str, Any] = field(default_factory=dict)
    #: The run's merged :class:`~repro.obs.tracer.Tracer` when tracing was
    #: on, else ``None``.
    trace: Any = None

    def summary(self) -> dict[str, float]:
        """The headline numbers for reports."""
        c = self.counters
        return {
            "wall_time": self.wall_time,
            "map_input_bytes": c[C.MAP_INPUT_BYTES],
            "map_output_bytes": c[C.MAP_OUTPUT_BYTES],
            "reduce_spill_bytes": c[C.REDUCE_SPILL_BYTES],
            "merge_read_bytes": c[C.MERGE_READ_BYTES],
            "output_records": self.output_records,
            "network_bytes": self.network_bytes,
        }


@dataclass
class JobRun:
    """Coordinator state of one job execution.

    The driver fills these fields and passes the run to every hook; an
    engine's :meth:`JobDriver._open` adds its own (shuffle registry,
    delivery logs, ...) as further attributes.
    """

    job: Any
    counters: Counters
    recovery: RecoveryManager
    #: Map tasks still to run, in schedule order (a node crash re-queues).
    queue: deque[TaskAssignment]
    splits: dict[int, InputSplit]
    #: partition -> node; re-homed when a reducer's node or attempt dies.
    reducer_nodes: dict[int, str]
    live: list[str]
    #: The engine's additions to the result (:attr:`JobResult.extras`).
    extras: dict[str, Any]
    snapshots: list[Any] = field(default_factory=list)
    #: Journaled on resume: partition -> committed output records, and
    #: partition -> ``(delivery-log seq, reduce state)`` checkpoints.
    committed: dict[int, tuple[Any, ...]] = field(default_factory=dict)
    checkpoints: dict[int, tuple[int, bytes]] = field(default_factory=dict)
    session: Any = None
    reduce_tasks: dict[int, Any] = field(default_factory=dict)
    #: partition -> reduce-kernel result awaiting its commit.
    reduced: dict[int, Any] = field(default_factory=dict)
    network_bytes: int = 0


@contextmanager
def _collector_paused() -> Iterator[None]:
    """Pause CPython's cyclic collector for one job.

    The job's pairs, runs and hash states live until it ends, so collections
    inside it free nothing.  One young collection at exit, however the job
    ends, reclaims any cycle it left and traverses its survivors once.  A
    caller that already disabled the (process-wide) collector is left alone.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.collect(0)
        gc.enable()


class JobDriver:
    """One job's whole lifecycle; engines subclass and fill in the hooks."""

    #: Engine name: journal fingerprint, logger and :attr:`JobResult.engine`.
    name = ""
    #: The registered kernel every map task of this engine runs.
    map_kernel = ""
    #: The registered kernel a blocking reduce runs (see
    #: :meth:`_finish_reduce`); an engine that reduces on the coordinator
    #: leaves it empty and overrides that hook.
    reduce_kernel = ""
    #: Push engines keep recovery state in replicated on-disk logs — the
    #: files a fault plan's disk faults are aimed at.
    replicated_logs = False

    def __init__(
        self,
        cluster: "LocalCluster",
        *,
        map_slots: int,
        fault_plan: FaultPlan | None,
        speculation: SpeculationPolicy | None,
        executor: Any,
        tracer: Any,
        journal: Any,
    ) -> None:
        self.cluster = cluster
        self.scheduler = WaveScheduler(cluster.compute_node_names, map_slots=map_slots)
        self.fault_plan = fault_plan
        self.speculation = speculation
        self.executor = resolve_executor(executor)
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.journal = journal if journal is not None else NULL_JOURNAL

    # -- the lifecycle ---------------------------------------------------------

    def run(self, job: Any) -> JobResult:
        """Execute ``job``; returns the merged counters and output path."""
        # Outside _run, so its exit collection sees only what the result keeps.
        with _collector_paused():
            return self._run(job)

    def _run(self, job: Any) -> JobResult:
        if not job.input_path or not job.output_path:
            raise ValueError("job must set input_path and output_path")
        journal = self.journal
        counters = Counters()
        t_start = time.perf_counter()
        assignments, sched_stats = self.scheduler.schedule(
            self.cluster.hdfs.input_splits(job.input_path)
        )
        if self.fault_plan is not None:
            self.fault_plan.check_targets(
                self.name,
                self.cluster.compute_node_names,
                len(assignments),
                job.config.num_reducers,
            )
        run = JobRun(
            job=job,
            counters=counters,
            recovery=RecoveryManager(
                self.fault_plan, counters, speculation=self.speculation, tracer=self.tracer
            ),
            queue=deque(assignments),
            splits={a.task_id: a.split for a in assignments},
            reducer_nodes=self.scheduler.assign_reducers(job.config.num_reducers),
            live=list(self.cluster.compute_node_names),
            extras=self._new_extras(job),
        )
        appends0, jbytes0 = journal.appends, journal.bytes_written
        phase_times = {"map": 0.0, "reduce": 0.0}
        output_records = self._resume(run) if journal.enabled else None
        if output_records is None:
            with self._injected_disk_faults():
                phase_times, output_records = self._execute(run)
        if journal.enabled:
            journal.finalize()
            counters.inc(C.JOURNAL_APPENDS, journal.appends - appends0)
            counters.inc(C.JOURNAL_BYTES, journal.bytes_written - jbytes0)
        if self.tracer.open_spans:
            raise RuntimeError(f"{job.name}: {self.tracer.open_spans} span(s) left open")
        return JobResult(
            job_name=job.name,
            engine=self.name,
            output_path=job.output_path,
            counters=counters,
            wall_time=time.perf_counter() - t_start,
            phase_times=phase_times,
            schedule=sched_stats,
            network_bytes=run.network_bytes,
            output_records=output_records,
            snapshots=run.snapshots,
            extras=run.extras,
            trace=self.tracer if self.tracer.enabled else None,
        )

    def _resume(self, run: JobRun) -> int | None:
        """The journal resume protocol.

        Loads the journaled reduce commits and checkpoints into ``run``
        and returns ``None`` — or, when every partition's output is
        already journaled, rebuilds the output file from the commits
        alone (no recompute) and returns its record count.  A journal
        that already holds the output commit gets zero new appends, so
        replaying it again is byte-identical (idempotent).
        """
        journal, job = self.journal, run.job
        state = journal.resume_state()
        fingerprint = job_fingerprint(job, self.name)
        state.check_spec(fingerprint)
        if state.truncated_bytes:
            self.tracer.event("journal.truncated", "journal", bytes=state.truncated_bytes)
        done = state.output_commits > 0
        if not done:
            journal.append(K_JOB_SPEC, spec=fingerprint, engine=self.name, job=job.name)
        if done or state.complete(job.config.num_reducers):
            output_records = emit_committed_output(
                self.cluster.hdfs, job, run.reducer_nodes, state, run.counters, self.tracer
            )
            if not done:
                self._commit_output(job, output_records)
            return output_records
        run.committed = dict(state.reduce_commits)
        run.checkpoints = dict(state.checkpoints)
        if run.committed or run.checkpoints:
            run.counters.inc(C.JOURNAL_REPLAYED_COMMITS, len(run.committed))
            self.tracer.event(
                "journal.resume",
                "journal",
                commits=len(run.committed),
                checkpoints=len(run.checkpoints),
            )
        return None

    def _commit_output(self, job: Any, output_records: int) -> None:
        self.journal.append(
            K_OUTPUT_COMMIT,
            path=job.output_path,
            records=output_records,
            digest=output_digest(self.cluster.hdfs, job.output_path),
        )

    @contextmanager
    def _injected_disk_faults(self) -> Iterator[None]:
        """Attach the plan's torn-write / short-read injector for this run only.

        Disk faults target the replicated recovery files, so only engines
        that keep them (:attr:`replicated_logs`) are injected.  Every
        disk gets its previous injector back however the run ends, so a
        later fault-free run on the same cluster reads and writes intact.
        """
        plan = self.fault_plan
        disks: list[LocalDisk] = []
        if plan is not None and plan.has_disk_faults and self.replicated_logs:
            disks = list(self.cluster.intermediate_disks().values())
        previous = [disk.fault_injector for disk in disks]
        for disk in disks:
            disk.fault_injector = plan
        try:
            yield
        finally:
            for disk, injector in zip(disks, previous):
                disk.fault_injector = injector

    def _execute(self, run: JobRun) -> tuple[dict[str, float], int]:
        """Map waves -> shuffle commit -> reduce -> output commit."""
        job, hdfs = run.job, self.cluster.hdfs
        codec = hdfs.codec(hdfs.namenode.file_info(job.input_path).codec_name)
        context = {"job": job, "codec": codec, "trace": self.tracer.enabled}
        context.update(self._kernel_context())
        run.session = self.executor.session(context)
        with run.session:
            run.reduce_tasks = {
                p: self._new_reduce_task(run, p, node)
                for p, node in run.reducer_nodes.items()
            }
            self._open(run)
            t_map = self._map_phase(run)
            for partition in sorted(run.reduce_tasks):
                if partition not in run.committed:
                    self.journal.append(K_SHUFFLE_COMMIT, partition=partition)
            t_reduce, output_records = self._reduce_phase(run)
        self._close(run)
        run.counters.inc(C.OUTPUT_BYTES, hdfs.file_bytes(job.output_path))
        if self.journal.enabled:
            self._commit_output(job, output_records)
        return {"map": t_map, "reduce": t_reduce}, output_records

    # -- map phase -------------------------------------------------------------

    def _map_phase(self, run: JobRun) -> float:
        tracer, queue, plan = self.tracer, run.queue, self.fault_plan
        c_map0 = tracer.clock
        t_map_start = time.perf_counter()
        # A plan's kills, speculation and node crashes are defined between
        # task completions, so under one a wave is a single task.
        width = run.session.max_batch if self.fault_plan is None else 1
        completed = 0
        while queue:
            batch = [queue.popleft() for _ in range(min(len(queue), width))]
            for launched in self._launch_wave(run, batch):
                self._settle_map(run, *launched)
                completed += 1
                for crashed in plan.crashes_due(completed) if plan else ():
                    with run.counters.timer(C.T_RECOVERY):
                        self._handle_node_crash(run, crashed)
                self._after_map_commit(run, completed)
        t_map = time.perf_counter() - t_map_start
        tracer.add_span("map-phase", "phase", c_map0, tracer.clock, wall_s=t_map)
        get_logger(self.name).info("map.phase.done", tasks=completed, wall_ms=t_map * 1e3)
        return t_map

    def _launch_wave(
        self, run: JobRun, batch: list[TaskAssignment]
    ) -> Iterator[tuple[TaskAssignment, list[str], Any]]:
        """Grant ``batch`` and run each task's first attempt as one kernel wave.

        Yields ``(assignment, candidate nodes, first result)`` per task, in
        order; the first attempt ran on ``candidates[0]``.  A wave wider
        than one reads its inputs uncharged and charges each read as it
        yields the task, so every disk sees the op sequence that waves of
        one (the serial executor) give it.
        """
        charge = len(batch) == 1
        candidates, specs = [], []
        for a in batch:
            self.journal.append(K_TASK_GRANT, task=a.task_id, node=a.node)
            nodes = run.recovery.map_candidates(a.task_id, a.node, run.live)
            candidates.append(nodes)
            data = self._read_input(run, a.split, nodes[0], charge=charge)
            specs.append(self._map_spec(run, a.task_id, nodes[0], data))
        results = run.session.run_batch(self.map_kernel, specs)
        for a, nodes, first in zip(batch, candidates, results):
            if not charge:
                self._read_input(run, a.split, nodes[0])
            yield a, nodes, first

    def _attempt_spec(self, run: JobRun, a: TaskAssignment, node: str) -> Any:
        return self._map_spec(run, a.task_id, node, self._read_input(run, a.split, node))

    def _settle_map(self, run: JobRun, a: TaskAssignment, nodes: list[str], first: Any) -> None:
        """Run one launched map task to success, commit its output.

        Attempt semantics live in the shared
        :class:`~repro.mapreduce.recovery.RecoveryManager` loop, which
        every task passes through: each attempt — killed, speculative
        loser or winner — charges its work to the job; only the winner's
        output is committed.  A retry is a wave of one.
        """

        def attempt(node: str) -> Any:
            [res] = run.session.run_batch(self.map_kernel, [self._attempt_spec(run, a, node)])
            self._absorb(run, node, res)
            return res

        def discard(node: str, _res: Any) -> None:
            self._discard_map(run, a.task_id, node)

        self._absorb(run, nodes[0], first)
        node, res = run.recovery.run_map_task(
            a.task_id, nodes, a.split.nbytes, first, attempt, discard
        )
        nbytes = self._commit_map(run, a.task_id, node, res)
        self.journal.append(K_MAP_COMMIT, task=a.task_id, node=node, nbytes=nbytes)

    def _read_input(
        self, run: JobRun, split: InputSplit, node: str, *, charge: bool = True
    ) -> bytes:
        """A split's raw bytes, preferring the local replica.

        Without ``charge`` neither the disk read nor the network transfer
        is accounted: the caller reads again, charged, when it is due.
        """
        local = node in split.preferred_nodes
        data = self.cluster.hdfs.read_block_bytes(
            split.block_id, from_node=node if local else None, charge=charge
        )
        if charge and not local:
            run.network_bytes += len(data)
        return data

    def _disk(self, node: str) -> LocalDisk:
        """The disk that takes ``node``'s map output, spills and logs."""
        return self.cluster.nodes[node].intermediate_disk

    def _absorb(self, run: JobRun, node: str, res: Any) -> None:
        """Charge one kernel result (counters, trace) to the job."""
        run.counters.merge(res.counters)
        self.tracer.absorb(res.trace)

    def _handle_node_crash(self, run: JobRun, crashed: str) -> None:
        """React to losing a whole node mid-job.

        Its HDFS replicas re-replicate, the engine recovers what else the
        node held (:meth:`_on_node_lost`), and its reduce tasks restart
        on survivors, in partition order.
        """
        counters, live = run.counters, run.live
        counters.inc(C.NODE_CRASHES)
        self.tracer.event("node.crash", "recovery", node=crashed)
        live.remove(crashed)
        if not live:
            raise RuntimeError(f"node crash of {crashed} left no live compute nodes")
        self.cluster.wipe_node(crashed)
        report = self.cluster.hdfs.handle_node_loss(crashed)
        if report.blocks_rereplicated:
            counters.inc(C.BLOCKS_REREPLICATED, report.blocks_rereplicated)
            counters.inc(C.BYTES_REREPLICATED, report.bytes_rereplicated)
        self._on_node_lost(run, crashed)
        for partition in sorted(run.reducer_nodes):
            if run.reducer_nodes[partition] == crashed:
                self._restart_reduce(run, partition, live[partition % len(live)])

    def _restart_reduce(self, run: JobRun, partition: int, node: str) -> None:
        """Replace a lost reduce task with a rebuilt one on ``node``."""
        run.counters.merge(run.reduce_tasks[partition].counters)  # its work still happened
        run.counters.inc(C.TASKS_RERUN)
        run.reducer_nodes[partition] = node
        run.reduce_tasks[partition] = self._rebuild_reduce_task(run, partition, node)

    # -- reduce phase ----------------------------------------------------------

    def _reduce_phase(self, run: JobRun) -> tuple[float, int]:
        job, hdfs, journal, tracer = run.job, self.cluster.hdfs, self.journal, self.tracer
        c_reduce0 = tracer.clock
        t_reduce_start = time.perf_counter()
        hdfs.namenode.create_file(job.output_path, codec_name="binary")
        order = sorted(run.reduce_tasks)
        if self.fault_plan is None and self.reduce_kernel:
            # Without a plan no reduce attempt can die: one wave.
            self._reduce_wave(run, [p for p in order if p not in run.committed])
        output_records = 0
        for partition in order:
            if partition in run.committed:
                output = list(run.committed[partition])  # journaled; never recomputed
            else:
                output = run.recovery.run_reduce_task(
                    partition, lambda idx, p=partition: self._reduce_attempt(run, p, idx)
                )
                run.counters.merge(run.reduce_tasks[partition].counters)
                # Commit, then emit: a crash between the two replays the
                # journaled records instead of reducing (and emitting) twice.
                journal.append(K_REDUCE_COMMIT, partition=partition, records=tuple(output))
                if journal.enabled:
                    tracer.event(
                        "journal.commit",
                        "journal",
                        task=f"reduce:{partition:03d}",
                        records=len(output),
                    )
            output_records += len(output)
            if output:
                hdfs.append_block(
                    job.output_path, output, writer_node=run.reducer_nodes[partition]
                )
        t_reduce = time.perf_counter() - t_reduce_start
        tracer.add_span("reduce-phase", "phase", c_reduce0, tracer.clock, wall_s=t_reduce)
        get_logger(self.name).info(
            "reduce.phase.done",
            partitions=len(order),
            records=output_records,
            wall_ms=t_reduce * 1e3,
        )
        return t_reduce, output_records

    def _reduce_attempt(self, run: JobRun, partition: int, attempt_idx: int) -> list[Any]:
        if attempt_idx > 0:
            # The previous attempt died mid-reduce: its state is gone.  A
            # fresh task on the next live node rebuilds the partition.
            node = run.live[(partition + attempt_idx) % len(run.live)]
            with run.counters.timer(C.T_RECOVERY):
                self._restart_reduce(run, partition, node)
        return self._finish_reduce(run, partition)

    # -- engine hooks: Table III's three axes ----------------------------------

    def _new_extras(self, job: Any) -> dict[str, Any]:
        """The initial :attr:`JobResult.extras` (same shape on every path)."""
        return {}

    def _kernel_context(self) -> dict[str, Any]:
        """Engine config the map kernel needs beyond job, codec and trace."""
        return {}

    def _open(self, run: JobRun) -> None:
        """Create the engine's per-run state on ``run``."""

    def _map_spec(self, run: JobRun, task_id: int, node: str, data: bytes) -> Any:
        """The picklable spec of one map attempt on ``node``."""
        raise NotImplementedError

    def _commit_map(self, run: JobRun, task_id: int, node: str, res: Any) -> int:
        """Make a surviving map task's output visible to the reducers.

        The shuffle discipline: register for pull, or push (and log) now.
        Returns the byte count journaled with the map commit.
        """
        raise NotImplementedError

    def _discard_map(self, run: JobRun, task_id: int, node: str) -> None:
        """Clean up after a dead or losing map attempt on ``node``."""

    def _after_map_commit(self, run: JobRun, completed: int) -> None:
        """What follows each map commit: reducer pulls, snapshots, nothing."""

    def _on_node_lost(self, run: JobRun, crashed: str) -> None:
        """Recover the map-side state that died with ``crashed``."""

    def _new_reduce_task(self, run: JobRun, partition: int, node: str) -> Any:
        """A fresh reduce task (the group-by implementation) on ``node``."""
        raise NotImplementedError

    def _rebuild_reduce_task(self, run: JobRun, partition: int, node: str) -> Any:
        """A reduce task on ``node`` holding everything its lost twin held."""
        raise NotImplementedError

    def _finish_reduce(self, run: JobRun, partition: int) -> list[Any]:
        """Run one reduce attempt to completion; returns its output records.

        The blocking reducer: a partition not in the pre-computed wave is
        reduced as a wave of one.  The kernel's shadow-disk merge I/O,
        run-phase counters and trace are charged here, in partition order.
        """
        if partition not in run.reduced:
            self._reduce_wave(run, [partition])
        rtask, res = run.reduce_tasks[partition], run.reduced.pop(partition)
        rtask.disk.absorb(res.disk)
        rtask.counters.merge(res.counters)
        self.tracer.absorb(res.trace)
        return res.output

    def _reduce_wave(self, run: JobRun, pending: list[int]) -> None:
        """Ship each pending reduce task's ingested state to :attr:`reduce_kernel`."""
        from repro.exec.kernels import reduce_spec

        specs = [reduce_spec(run.reduce_tasks[partition]) for partition in pending]
        run.reduced.update(zip(pending, run.session.run_batch(self.reduce_kernel, specs)))

    def _close(self, run: JobRun) -> None:
        """Delete intermediates; settle ``run.network_bytes`` and extras."""


class PushShuffleDriver(JobDriver):
    """What the push engines (HOP, one-pass) share: delivery logs.

    Pushed map output never stays at the mappers, so reduce-side recovery
    needs its own durability: with a fault plan, every delivered chunk is
    appended to a 2-way replicated :class:`PartitionLog` (real, accounted
    disk I/O) — the one thing a plan adds to a push engine's run; chunks
    are delivered (:meth:`_accept_chunk`) only after their map attempt
    survived, plan or no plan.  A lost reduce task — killed attempt or
    node crash — is rebuilt by replaying its partition's log in delivery
    order, which reproduces the exact pre-failure state.  Reduce tasks
    take chunks through ``accept_segment(pairs, nbytes)``.
    """

    replicated_logs = True
    #: Disk namespace of the engine's reduce-side files.
    reduce_namespace = ""

    def _open(self, run: JobRun) -> None:
        run.logs = {}
        if self.fault_plan is not None:
            names = self.cluster.compute_node_names
            for p, node in run.reducer_nodes.items():
                # Replicas: the reducer's own node plus the next.
                chosen = [node]
                if len(names) > 1:
                    chosen.append(names[(names.index(node) + 1) % len(names)])
                replicas = [(n, self._disk(n)) for n in chosen]
                run.logs[p] = PartitionLog(p, replicas, run.counters)

    def _accept_chunk(
        self, run: JobRun, partition: int, pairs: list[tuple[Any, Any]], nbytes: int
    ) -> bool:
        """Deliver one chunk of a surviving map attempt: log it first if the
        partition has a delivery log, then hand it to the reduce task."""
        log = run.logs.get(partition)
        if log is not None:
            run.counters.inc(C.STAGED_OUTPUT_BYTES, nbytes)
            log.append(pairs, nbytes)
        return run.reduce_tasks[partition].accept_segment(pairs, nbytes)

    def _stores(self, run: JobRun, partition: int) -> list[Any]:
        """The replicated stores guarding ``partition``, log first."""
        return [run.logs[partition]]

    def _on_node_lost(self, run: JobRun, crashed: str) -> None:
        # Completed map output was already delivered and logged, so no map
        # re-executes; the dead node's store replicas re-home.
        for partition in sorted(run.logs):
            for store in self._stores(run, partition):
                holders = [n for n, _ in store.replicas]
                if crashed not in holders:
                    continue
                candidates = [n for n in run.live if n not in holders]
                if candidates:
                    store.replace_replica(crashed, candidates[0], self._disk(candidates[0]))

    def _restore_reduce_state(self, run: JobRun, rtask: Any) -> int:
        """Load saved state into a rebuilt task; returns the log seq it covers."""
        return 0

    def _rebuild_reduce_task(self, run: JobRun, partition: int, node: str) -> Any:
        disk = self._disk(node)
        disk.delete_prefix(f"{self.reduce_namespace}/{partition:03d}")
        rtask = self._new_reduce_task(run, partition, node)
        after_seq = self._restore_reduce_state(run, rtask)
        replayed = 0
        nbytes_replayed = 0
        with self.tracer.span(
            "replay", "recovery", node=node, task=f"reduce:{partition:03d}"
        ) as replay_span:
            for _seq, pairs, nbytes in run.logs[partition].replay(after_seq):
                rtask.accept_segment(pairs, nbytes)
                replayed += len(pairs)
                nbytes_replayed += nbytes
                run.counters.inc(C.REPLAYED_RECORDS, len(pairs))
                run.counters.inc(C.BYTES_RESHUFFLED, nbytes)
            replay_span.set_cost(max(1, byte_cost(nbytes_replayed)))
            replay_span.set(records=replayed, bytes=nbytes_replayed)
        return rtask

    def _close(self, run: JobRun) -> None:
        for partition in sorted(run.logs):
            for store in self._stores(run, partition):
                store.cleanup()
