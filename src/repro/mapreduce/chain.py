"""In-memory intermediate reuse for chained jobs (the M3R idea).

A multi-stage analysis — sessionize, then aggregate the sessions — runs as
a chain of MapReduce jobs where stage *i*'s output file is stage *i+1*'s
input.  Run naively, every intermediate round-trips through HDFS: the
producing reducers write replicated blocks, and the next job's map phase
reads them straight back.  For a chain that is pure waste — the bytes were
in this process moments ago.

:class:`PartitionCache` keeps those intermediate blocks in memory instead.
:func:`run_chain` registers each non-final output path in the cache before
its stage runs; the HDFS facade then routes the registered paths' block
*bytes* into the cache at write time and serves reads from it, while the
NameNode keeps normal block metadata (placement still consumes the same
round-robin cursor positions, so file layout and locality scheduling are
byte-identical to the uncached run).  Entries are keyed by job fingerprint
plus block index, which both deduplicates re-runs of an identical stage and
keeps a crashed-and-resumed chain from doubling its footprint.

Memory is bounded: past ``capacity_bytes`` the cache spills entries to an
*accounted* local disk in deterministic FIFO (insertion) order, so a
pressured chain degrades to exactly the disk traffic it saved, never to an
unbounded resident set.

This module is coordinator-only.  Kernels never see the cache — blocks are
materialised to plain ``bytes`` before any task spec is built, which is
also why :meth:`PartitionCache.get` returns the stored object rather than a
``memoryview`` (process-pool executors pickle task specs).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.hdfs.blocks import BlockId
from repro.io.disk import LocalDisk
from repro.mapreduce.counters import C, Counters
from repro.mapreduce.journal import job_fingerprint
from repro.obs.tracer import NULL_TRACER, byte_cost

__all__ = ["PartitionCache", "ChainStage", "ChainResult", "run_chain"]


class _CacheEntry:
    """One cached block: in-memory bytes, or a pointer to its spill file."""

    __slots__ = ("block_id", "nbytes", "data", "spill_path")

    def __init__(self, block_id: BlockId, data: bytes) -> None:
        self.block_id = block_id
        self.nbytes = len(data)
        self.data: bytes | None = data
        self.spill_path: str | None = None


class PartitionCache:
    """Process-local store of intermediate HDFS blocks for chained jobs.

    Entries are keyed by ``(job_fingerprint, block_index)``; re-storing an
    existing key is a dedup hit (the bytes are already here).  All counter
    traffic lands on :attr:`counters` — the cache's own bag, merged into
    the chain-level totals by :func:`run_chain`, never into a single job's
    counters (which must stay byte-identical with the cache on or off).
    """

    __slots__ = (
        "capacity_bytes",
        "spill_disk",
        "tracer",
        "counters",
        "_registered",
        "_entries",
        "_by_block",
        "used_bytes",
    )

    def __init__(
        self,
        *,
        capacity_bytes: int = 64 * 1024 * 1024,
        spill_disk: LocalDisk | None = None,
        tracer: Any = NULL_TRACER,
    ) -> None:
        if capacity_bytes <= 0:
            raise ValueError("capacity_bytes must be positive")
        self.capacity_bytes = capacity_bytes
        self.spill_disk = spill_disk
        self.tracer = tracer
        self.counters = Counters()
        #: path -> fingerprint of the job that produces it
        self._registered: dict[str, str] = {}
        #: (fingerprint, block index) -> entry, in insertion (FIFO) order
        self._entries: dict[tuple[str, int], _CacheEntry] = {}
        #: block id -> entry key
        self._by_block: dict[BlockId, tuple[str, int]] = {}
        self.used_bytes = 0

    # -- registration --------------------------------------------------------

    def register(self, path: str, fingerprint: str) -> None:
        """Route ``path``'s future block writes/reads through the cache."""
        self._registered[path] = fingerprint
        self.tracer.event("cache.register", "cache", path=path, fp=fingerprint)

    def captures(self, path: str) -> bool:
        return path in self._registered

    def holds(self, block_id: BlockId) -> bool:
        return block_id in self._by_block

    # -- block traffic (called by the HDFS facade) ---------------------------

    def store(self, block_id: BlockId, data: bytes) -> None:
        """Capture one block write of a registered path."""
        key = (self._registered[block_id.path], block_id.index)
        if key in self._entries:
            # An identical stage already produced this block (chain re-run
            # or resume): the bytes are here, nothing to copy.
            self.counters.inc(C.CACHE_DEDUP_HITS)
            self._by_block[block_id] = key
            return
        entry = _CacheEntry(block_id, data)
        self._entries[key] = entry
        self._by_block[block_id] = key
        self.used_bytes += entry.nbytes
        self._spill_over_pressure()

    def get(self, block_id: BlockId) -> bytes | None:
        """Serve one block read, unspilling from local disk if needed."""
        key = self._by_block.get(block_id)
        if key is None:
            self.counters.inc(C.CACHE_MISSES)
            return None
        entry = self._entries[key]
        self.counters.inc(C.CACHE_HITS)
        if entry.data is not None:
            return entry.data
        assert self.spill_disk is not None and entry.spill_path is not None
        return self.spill_disk.read(entry.spill_path)

    # -- pressure ------------------------------------------------------------

    def _spill_over_pressure(self) -> None:
        """Spill resident entries FIFO until back under the byte budget.

        Insertion order is deterministic, so which blocks hit disk (and in
        what order) is a pure function of the chain — no clock, no
        randomness.  A cache over budget with no spill disk raises rather
        than growing silently.
        """
        while self.used_bytes > self.capacity_bytes:
            key = next(
                (k for k, e in self._entries.items() if e.data is not None), None
            )
            if key is None:
                return
            entry = self._entries[key]
            if self.spill_disk is None:
                raise RuntimeError(
                    "PartitionCache over capacity with no spill disk; "
                    "pass spill_disk= or raise capacity_bytes"
                )
            path = f"chaincache/{key[0]}/blk-{key[1]:06d}"
            assert entry.data is not None
            with self.tracer.span(
                "batch.encode",
                "cache",
                cost=byte_cost(entry.nbytes),
                bytes=entry.nbytes,
            ):
                self.spill_disk.write(path, entry.data, overwrite=True)
            self.tracer.event(
                "cache.spill",
                "cache",
                bytes=entry.nbytes,
                resident_bytes=self.used_bytes - entry.nbytes,
            )
            self.counters.inc(C.CACHE_SPILLS)
            self.counters.inc(C.CACHE_SPILL_BYTES, entry.nbytes)
            entry.spill_path = path
            entry.data = None
            self.used_bytes -= entry.nbytes

    # -- cleanup -------------------------------------------------------------

    def release(self, path: str) -> None:
        """Drop every entry of ``path`` and unregister it."""
        fingerprint = self._registered.pop(path, None)
        if fingerprint is None:
            return
        doomed = [k for k in self._entries if k[0] == fingerprint]
        for key in doomed:
            entry = self._entries.pop(key)
            if entry.data is not None:
                self.used_bytes -= entry.nbytes
            elif self.spill_disk is not None and entry.spill_path is not None:
                self.spill_disk.delete(entry.spill_path)
        dead_blocks = [b for b, k in self._by_block.items() if k[0] == fingerprint]
        for block_id in dead_blocks:
            del self._by_block[block_id]

    def clear(self) -> None:
        for path in list(self._registered):
            self.release(path)

    @property
    def resident_blocks(self) -> int:
        return sum(1 for e in self._entries.values() if e.data is not None)

    @property
    def spilled_blocks(self) -> int:
        return sum(1 for e in self._entries.values() if e.data is None)


# -- chained execution ---------------------------------------------------------


@dataclass(slots=True)
class ChainStage:
    """One link of a chained pipeline: a job plus the engine to run it on.

    ``engine`` is an engine name (``"hadoop"``, ``"hop"``, ``"onepass"``);
    ``engine_kwargs`` is passed to the engine constructor (fault plans,
    checkpoint intervals, ...).  The job's ``input_path`` must be the
    previous stage's ``output_path`` for the cache to help, though
    :func:`run_chain` does not require it — unrelated stages simply see no
    cache traffic.
    """

    job: Any
    engine: str = "onepass"
    engine_kwargs: dict[str, Any] = field(default_factory=dict)


@dataclass(slots=True)
class ChainResult:
    """Outcome of a chained run: per-stage results plus merged accounting.

    ``counters`` is the union of every stage's counters *plus* the cache's
    own (``cache.hits`` / ``cache.misses`` / ``cache.spills`` / ...); the
    per-stage :class:`~repro.mapreduce.runtime.JobResult` objects keep
    their cache-free counter bags untouched.
    """

    results: list[Any]
    counters: Counters
    cache: PartitionCache


def _make_engine(stage: ChainStage, cluster: Any, executor: Any, tracer: Any) -> Any:
    kwargs = dict(stage.engine_kwargs)
    kwargs.setdefault("executor", executor)
    if tracer is not None:
        kwargs.setdefault("tracer", tracer)
    if stage.engine == "hadoop":
        from repro.mapreduce.runtime import HadoopEngine

        return HadoopEngine(cluster, **kwargs)
    if stage.engine == "hop":
        from repro.mapreduce.hop import HOPEngine

        return HOPEngine(cluster, **kwargs)
    if stage.engine == "onepass":
        from repro.core.engine import OnePassEngine

        return OnePassEngine(cluster, **kwargs)
    raise ValueError(f"unknown engine {stage.engine!r}")


def run_chain(
    cluster: Any,
    stages: list[ChainStage],
    *,
    cache: PartitionCache | None = None,
    cache_bytes: int = 64 * 1024 * 1024,
    executor: Any = None,
    tracer: Any = None,
    keep_intermediates: bool = False,
) -> ChainResult:
    """Run a job chain with intermediate outputs held in memory.

    Every stage's output except the last is registered in the cache before
    the stage runs, so its blocks never land on the DataNodes' disks and
    the next stage's map phase reads them straight from memory.  The final
    stage's output goes through the normal replicated write path — it must
    outlive the cache.

    Unless ``keep_intermediates`` is set, intermediate files are deleted
    (metadata and cached bytes) once the chain completes; a kept
    intermediate is only readable while its cache stays attached, since
    its bytes exist nowhere else.
    """
    if not stages:
        raise ValueError("run_chain needs at least one stage")
    if cache is None:
        spill_node = cluster.compute_node_names[0]
        cache = PartitionCache(
            capacity_bytes=cache_bytes,
            spill_disk=cluster.nodes[spill_node].intermediate_disk,
            tracer=tracer if tracer is not None else NULL_TRACER,
        )
    hdfs = cluster.hdfs
    previous_cache = getattr(hdfs, "block_cache", None)
    hdfs.block_cache = cache
    results: list[Any] = []
    merged = Counters()
    try:
        last = len(stages) - 1
        for i, stage in enumerate(stages):
            if i < last:
                cache.register(
                    stage.job.output_path, job_fingerprint(stage.job, stage.engine)
                )
            engine = _make_engine(stage, cluster, executor, tracer)
            result = engine.run(stage.job)
            results.append(result)
            merged.merge(result.counters)
        if not keep_intermediates:
            for stage in stages[:last]:
                hdfs.delete_file(stage.job.output_path)
    finally:
        hdfs.block_cache = previous_cache
    merged.merge(cache.counters)
    return ChainResult(results=results, counters=merged, cache=cache)
