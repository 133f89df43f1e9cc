"""Hadoop-like MapReduce substrate: the paper's sort-merge baselines.

* :class:`~repro.mapreduce.runtime.HadoopEngine` — stock Hadoop: sort-spill
  map output, pull shuffle, multi-pass merge, blocking reduce.
* :class:`~repro.mapreduce.hop.HOPEngine` — MapReduce Online: push-based
  pipelining and periodic snapshots layered over the same sort-merge core.

Both execute real :class:`~repro.mapreduce.api.MapReduceJob` programs over
the in-process cluster, with full byte/time accounting.  The job lifecycle
they (and the one-pass engine) share lives once, in
:class:`~repro.mapreduce.driver.JobDriver`.
"""

from repro.mapreduce.api import CombineFn, JobConfig, MapFn, MapReduceJob, ReduceFn
from repro.mapreduce.counters import C, Counters
from repro.mapreduce.faults import FaultPlan, TaskFailure
from repro.mapreduce.hop import HOPConfig, HOPEngine, Snapshot
from repro.mapreduce.merge import MultiPassMerger, group_sorted, merge_sorted
from repro.mapreduce.partition import HashPartitioner, hash_partitioner, stable_hash
from repro.mapreduce.recovery import (
    CheckpointStore,
    FetchRetryPolicy,
    PartitionLog,
    RecoveryManager,
    SpeculationPolicy,
    StragglerDetector,
    TaskLineage,
)
from repro.mapreduce.runtime import ClusterNode, HadoopEngine, JobResult, LocalCluster
from repro.mapreduce.scheduler import ScheduleStats, TaskAssignment, WaveScheduler
from repro.mapreduce.shuffle import FetchedSegment, FetchFailedError, ShuffleService
from repro.mapreduce.sortmerge import (
    MapOutput,
    MapOutputSegment,
    SortMergeMapTask,
    SortMergeReduceTask,
)

__all__ = [
    "MapReduceJob",
    "JobConfig",
    "MapFn",
    "ReduceFn",
    "CombineFn",
    "Counters",
    "C",
    "FaultPlan",
    "TaskFailure",
    "merge_sorted",
    "group_sorted",
    "MultiPassMerger",
    "stable_hash",
    "HashPartitioner",
    "hash_partitioner",
    "WaveScheduler",
    "TaskAssignment",
    "ScheduleStats",
    "ShuffleService",
    "FetchedSegment",
    "FetchFailedError",
    "FetchRetryPolicy",
    "SpeculationPolicy",
    "StragglerDetector",
    "TaskLineage",
    "RecoveryManager",
    "PartitionLog",
    "CheckpointStore",
    "SortMergeMapTask",
    "SortMergeReduceTask",
    "MapOutput",
    "MapOutputSegment",
    "LocalCluster",
    "ClusterNode",
    "HadoopEngine",
    "JobResult",
    "HOPEngine",
    "HOPConfig",
    "Snapshot",
]
