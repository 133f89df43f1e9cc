"""The paper's contribution: hash-based incremental one-pass analytics.

The package layers up exactly as §V's architecture figure does:

* hash + memory substrates — :mod:`~repro.core.hash_tables`,
  :mod:`~repro.core.aggregates`;
* map module — :mod:`~repro.core.partitioner` (scan-only partitioning,
  map-side hybrid hash with combiner);
* reduce module — :mod:`~repro.core.hybrid_hash` (blocking baseline),
  :mod:`~repro.core.incremental` (per-key states, early emission),
  :mod:`~repro.core.frequent` + :mod:`~repro.core.hotset` (hot keys in
  memory when states exceed memory);
* the engine — :mod:`~repro.core.engine` wires them under the MapReduce
  programming model with push-based shuffling.
"""

from repro.core.aggregates import (
    AVG,
    COLLECT,
    COUNT,
    MAX,
    MIN,
    SUM,
    AggregateState,
    Aggregator,
    AvgState,
    CollectState,
    CountState,
    MaxState,
    MinState,
    SessionState,
    SumCountState,
    SumState,
    TopKState,
    fold,
    sessionize,
    top_k,
)
from repro.core.engine import OnePassConfig, OnePassEngine, OnePassJob, OnePassReduceTask
from repro.core.frequent import SpaceSaving, TrackedKey
from repro.core.hash_tables import AccountedStateTable, HashFamily
from repro.core.hotset import ApproximateResult, HotSetIncrementalHash
from repro.core.hybrid_hash import HybridHashGrouper, SpilledState
from repro.core.incremental import EmitPolicy, IncrementalHash, count_threshold_policy
from repro.core.partitioner import MapSideHashCombiner, ScanPartitionBuffer

__all__ = [
    # aggregates
    "AggregateState",
    "Aggregator",
    "CountState",
    "SumState",
    "SumCountState",
    "AvgState",
    "MinState",
    "MaxState",
    "TopKState",
    "CollectState",
    "SessionState",
    "COUNT",
    "SUM",
    "AVG",
    "MIN",
    "MAX",
    "COLLECT",
    "top_k",
    "sessionize",
    "fold",
    # hash substrates
    "AccountedStateTable",
    "HashFamily",
    "HybridHashGrouper",
    "SpilledState",
    "IncrementalHash",
    "EmitPolicy",
    "count_threshold_policy",
    "SpaceSaving",
    "TrackedKey",
    "HotSetIncrementalHash",
    "ApproximateResult",
    # map side
    "ScanPartitionBuffer",
    "MapSideHashCombiner",
    # engine
    "OnePassConfig",
    "OnePassJob",
    "OnePassReduceTask",
    "OnePassEngine",
]
