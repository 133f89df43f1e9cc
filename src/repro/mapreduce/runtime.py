"""The in-process cluster and the Hadoop-baseline job runner.

:class:`LocalCluster` assembles N simulated nodes — each with one or two
accounted local disks and a DataNode — plus an HDFS namespace over them.
:class:`HadoopEngine` executes a :class:`~repro.mapreduce.api.MapReduceJob`
on that cluster exactly the way the paper describes Hadoop doing it:
block-level map tasks with locality-aware scheduling, sort-spill map
output, pull shuffle after each map completion, multi-pass merge, blocking
reduce.

Everything runs in one Python process (task "parallelism" is logical), but
all data movement is real: records are really mapped, sorted, spilled,
merged and reduced, and every byte is accounted on the node disks.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

from repro.hdfs.datanode import DataNode
from repro.hdfs.filesystem import HDFS
from repro.io.device import HDD_7200RPM, SSD_SATA
from repro.io.disk import DiskStats, LocalDisk
from repro.mapreduce.counters import C
from repro.mapreduce.driver import JobDriver, JobResult, JobRun
from repro.mapreduce.faults import FaultPlan
from repro.mapreduce.recovery import FetchRetryPolicy, SpeculationPolicy, TaskLineage
from repro.mapreduce.scheduler import WaveScheduler
from repro.mapreduce.shuffle import FetchFailedError, ShuffleService
from repro.mapreduce.sortmerge import SortMergeReduceTask
from repro.obs.tracer import byte_cost

__all__ = ["ClusterNode", "LocalCluster", "JobResult", "HadoopEngine"]


@dataclass(slots=True)
class ClusterNode:
    """One simulated machine: a name and its storage devices.

    ``intermediate`` names the disk that receives map output, spills and
    merge traffic.  In the default architecture it is the same device as
    HDFS data (``"hdd"``) — the contention the paper measures; in the
    HDD+SSD architecture it is the SSD.
    """

    name: str
    disks: dict[str, LocalDisk]
    intermediate: str = "hdd"

    @property
    def hdfs_disk(self) -> LocalDisk:
        return self.disks["hdd"]

    @property
    def intermediate_disk(self) -> LocalDisk:
        return self.disks[self.intermediate]


class LocalCluster:
    """A set of nodes plus the HDFS namespace spanning them.

    Parameters
    ----------
    num_nodes:
        Total machines.  With ``storage_nodes`` set, the first
        ``storage_nodes`` machines host HDFS only and the rest compute only
        (the paper's "separate distributed storage" architecture);
        otherwise every node does both (colocated, the default).
    with_ssd:
        Give each compute node an SSD and direct intermediate data to it
        (the paper's "separate storage devices" architecture).
    block_size:
        HDFS block size in bytes.
    """

    def __init__(
        self,
        num_nodes: int = 4,
        *,
        with_ssd: bool = False,
        storage_nodes: int = 0,
        block_size: int = 1 * 1024 * 1024,
        replication: int = 1,
    ) -> None:
        if num_nodes < 1:
            raise ValueError("need at least one node")
        if storage_nodes >= num_nodes:
            raise ValueError("storage_nodes must leave at least one compute node")
        self.nodes: dict[str, ClusterNode] = {}
        names = [f"node{i:02d}" for i in range(num_nodes)]
        for name in names:
            disks = {"hdd": LocalDisk(HDD_7200RPM, name=f"{name}.hdd")}
            intermediate = "hdd"
            if with_ssd:
                disks["ssd"] = LocalDisk(SSD_SATA, name=f"{name}.ssd")
                intermediate = "ssd"
            self.nodes[name] = ClusterNode(name=name, disks=disks, intermediate=intermediate)

        if storage_nodes > 0:
            self.storage_node_names = names[:storage_nodes]
            self.compute_node_names = names[storage_nodes:]
        else:
            self.storage_node_names = names
            self.compute_node_names = names

        datanodes = {
            name: DataNode(name, self.nodes[name].hdfs_disk)
            for name in self.storage_node_names
        }
        self.hdfs = HDFS(datanodes, replication=replication, block_size=block_size)

    @property
    def separate_storage(self) -> bool:
        return self.storage_node_names != self.compute_node_names

    def node(self, name: str) -> ClusterNode:
        return self.nodes[name]

    def intermediate_disks(self) -> dict[str, LocalDisk]:
        """Map from compute-node name to its intermediate-data disk."""
        return {
            name: self.nodes[name].intermediate_disk
            for name in self.compute_node_names
        }

    def wipe_node(self, name: str) -> None:
        """Simulate a machine crash: every byte stored on the node is lost.

        HDFS block replicas, map output, spills, logs — all gone.  The
        disks' accounting survives (the I/O the node performed before the
        crash really happened and stays on the job's bill).
        """
        for disk in self.nodes[name].disks.values():
            disk.delete_prefix("")

    def disk_stats(self) -> dict[str, DiskStats]:
        """Snapshot of every disk's counters, keyed ``node.device``."""
        out: dict[str, DiskStats] = {}
        for node in self.nodes.values():
            for dev, disk in node.disks.items():
                out[f"{node.name}.{dev}"] = disk.stats.snapshot()
        return out

    def total_disk_stats(self) -> DiskStats:
        total = DiskStats()
        for node in self.nodes.values():
            for disk in node.disks.values():
                s = disk.stats
                total.bytes_read += s.bytes_read
                total.bytes_written += s.bytes_written
                total.read_ops += s.read_ops
                total.write_ops += s.write_ops
                total.random_ops += s.random_ops
                total.sequential_ops += s.sequential_ops
                total.deletes += s.deletes
                total.busy_time += s.busy_time
        return total

class HadoopEngine(JobDriver):
    """The sort-merge baseline: stock Hadoop's execution model.

    On Table III's axes: sort-merge group-by, *pull* shuffle (map output
    is written synchronously to the mapper's disk and registered; reducers
    fetch it after every map completion), blocking reduce.  The lifecycle around them is
    :class:`~repro.mapreduce.driver.JobDriver`'s.

    ``fault_plan`` injects deterministic failures, all recovered the way
    Hadoop's JobTracker recovers them — and all charged to the job's
    counters, because re-execution is not free:

    * killed map/reduce attempts run, their output is discarded, and the
      task retries on the next live candidate node;
    * transient shuffle fetch failures back off exponentially; a segment
      that stays unfetchable past the retry budget ("too many fetch
      failures") re-executes its map task;
    * a node crash loses every HDFS replica, completed map output and
      reduce state on the node: under-replicated blocks re-replicate,
      the lost maps re-execute on survivors, and the node's reducers
      restart elsewhere and re-pull their partitions;
    * slow nodes make completed-but-straggling attempts race a
      speculative backup; the loser's work is counted as waste.

    The synchronous map-output write is what makes this recovery
    possible — the fault-tolerance rationale the paper cites for that
    write.
    """

    name = "hadoop"
    map_kernel = "hadoop_map"
    reduce_kernel = "hadoop_reduce"

    def __init__(
        self,
        cluster: LocalCluster,
        *,
        map_slots: int = 2,
        fault_plan: FaultPlan | None = None,
        retry_policy: FetchRetryPolicy | None = None,
        speculation: SpeculationPolicy | None = None,
        executor: Any = None,
        tracer: Any = None,
        journal: Any = None,
    ) -> None:
        super().__init__(
            cluster,
            map_slots=map_slots,
            fault_plan=fault_plan,
            speculation=speculation,
            executor=executor,
            tracer=tracer,
            journal=journal,
        )
        self.retry_policy = retry_policy

    def _open(self, run: JobRun) -> None:
        run.shuffle = ShuffleService(
            self.cluster.intermediate_disks(),
            fault_plan=self.fault_plan,
            retry_policy=self.retry_policy,
        )
        run.lineage = TaskLineage()

    # -- map side: sort-spill output, registered for pull -----------------------

    def _map_spec(self, run: JobRun, task_id: int, node: str, data: bytes) -> Any:
        from repro.exec.kernels import HadoopMapSpec

        disk = self._disk(node)
        return HadoopMapSpec(task_id, node, data, disk.profile, disk.name)

    def _absorb(self, run: JobRun, node: str, res: Any) -> None:
        # The sort-spill map task is the one kernel that writes: install
        # its shadow disk's files and charge their I/O to the node.
        self._disk(node).absorb(res.disk)
        super()._absorb(run, node, res)

    def _commit_map(self, run: JobRun, task_id: int, node: str, res: Any) -> int:
        run.shuffle.register(res.output)
        run.lineage.record(task_id, node, res.output.total_bytes)
        return res.output.total_bytes

    def _discard_map(self, run: JobRun, task_id: int, node: str) -> None:
        # The attempt died (or lost the speculative race) before its
        # completion report: its output files are gone.
        disk = self._disk(node)
        disk.delete_prefix(f"mapout/{task_id:05d}")
        disk.delete_prefix(f"mapspill/{task_id:05d}")

    def _after_map_commit(self, run: JobRun, completed: int) -> None:
        for partition in sorted(run.reduce_tasks):
            if partition not in run.committed:  # journaled output: nothing to pull
                self._pull_partition(run, partition)

    def _pull_partition(self, run: JobRun, partition: int) -> None:
        """Fetch every pending segment for ``partition`` into its reduce task.

        A segment that exhausts its fetch retries ("too many fetch
        failures") re-executes its map task; the loop then pulls from the
        fresh output.
        """
        shuffle, rtask = run.shuffle, run.reduce_tasks[partition]
        while True:
            pending = shuffle.pending_fetches(partition)
            if not pending:
                return
            for task_id in pending:
                try:
                    seg = shuffle.fetch(task_id, partition)
                except FetchFailedError:
                    self.tracer.event(
                        "shuffle.fetch_failed",
                        "recovery",
                        node=rtask.node,
                        task=f"reduce:{partition:03d}",
                        map_task=task_id,
                    )
                    with run.counters.timer(C.T_RECOVERY):
                        self._rerun_lost_map(run, task_id)
                    continue
                with self.tracer.span(
                    "fetch",
                    "shuffle",
                    node=rtask.node,
                    task=f"reduce:{partition:03d}",
                    cost=byte_cost(seg.nbytes),
                    bytes=seg.nbytes,
                    map_task=task_id,
                ):
                    rtask.accept_segment(seg.run, seg.nbytes)

    def _rerun_lost_map(self, run: JobRun, task_id: int) -> None:
        """Re-execute a map whose output is lost; re-register fresh output.

        Already-delivered segments stay valid at their reducers (the
        shuffle keeps fetch marks across ``invalidate``), so only the
        still-missing segments are served from the new output.
        """
        old_node = run.lineage.node_of(task_id)
        if old_node is not None:
            self._discard_map(run, task_id, old_node)
        run.shuffle.invalidate(task_id)
        run.lineage.forget(task_id)
        run.counters.inc(C.TASKS_RERUN)
        self.tracer.event(
            "map.rerun", "recovery", node=old_node or "", task=f"map:{task_id:05d}"
        )
        rescheduler = WaveScheduler(run.live, map_slots=self.scheduler.map_slots)
        [placed] = rescheduler.schedule([run.splits[task_id]])[0]
        [launched] = self._launch_wave(run, [replace(placed, task_id=task_id)])
        self._settle_map(run, *launched)

    def _on_node_lost(self, run: JobRun, crashed: str) -> None:
        # Completed map output on the node died with it: the lost maps
        # re-execute on survivors, rescheduled with locality.
        lost = run.lineage.tasks_on(crashed)
        for task_id in lost:
            run.shuffle.invalidate(task_id)
            run.lineage.forget(task_id)
        if lost:
            run.counters.inc(C.TASKS_RERUN, len(lost))
            rescheduler = WaveScheduler(run.live, map_slots=self.scheduler.map_slots)
            reassigned, _ = rescheduler.schedule([run.splits[t] for t in lost])
            run.queue.extend(replace(a, task_id=lost[a.task_id]) for a in reassigned)

    # -- reduce side: blocking merge + reduce -----------------------------------

    def _new_reduce_task(self, run: JobRun, partition: int, node: str) -> Any:
        disk = self._disk(node)
        return SortMergeReduceTask(run.job, partition, node, disk, tracer=self.tracer)

    def _rebuild_reduce_task(self, run: JobRun, partition: int, node: str) -> Any:
        # Everything the lost task fetched is gone: a fresh task re-pulls
        # the whole partition from the mapper disks.
        run.shuffle.reset_partition(partition)
        return self._new_reduce_task(run, partition, node)

    def _finish_reduce(self, run: JobRun, partition: int) -> list[Any]:
        if partition not in run.reduced:
            # Not pre-computed (a plan, or a rebuilt task's whole
            # partition): pull what is pending before the wave of one.
            self._pull_partition(run, partition)
        return super()._finish_reduce(run, partition)

    def _close(self, run: JobRun) -> None:
        run.shuffle.cleanup()
        run.shuffle.merge_stats(run.counters)
        run.network_bytes += run.shuffle.network_bytes
