"""Execution-pipeline models: Hadoop sort-merge, MapReduce Online, one-pass.

Each pipeline spawns the same cast of processes over a
:class:`~repro.simulator.cluster.SimCluster` — per-node map workers bound
by map slots, per-reducer ingest processes fed through mailboxes, and a
completion choreography — but differs in exactly the ways the paper
describes:

* :class:`HadoopPipeline` — map sorts its whole output and writes it
  synchronously; reducers pull after map completion, spill sorted runs,
  background-merge at factor F, and **block** on the multi-pass + final
  merge before any reduce work.
* :class:`HOPPipeline` — map pushes sorted mini-chunks as it goes (paying
  per-message network overhead), part of the sort CPU moves to reducers,
  and periodic snapshots re-merge everything received so far.  The
  sort-merge core and its blocking merge remain.
* :class:`OnePassPipeline` — the paper's hash engine: no sort anywhere,
  push shuffle, reduce-side states updated on arrival; disk traffic only
  for the state fraction that does not fit in memory.

Time-series, task timelines and byte totals come out in a
:class:`~repro.simulator.tasks.SimRunResult`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Generator

from repro.simulator.calibration import ClusterSpec, WorkloadProfile
from repro.simulator.cluster import SimCluster
from repro.simulator.events import Gate, Mailbox, Simulator, Timeout
from repro.simulator.node import SimNode
from repro.simulator.resources import Use
from repro.simulator.tasks import (
    SimRunResult,
    SimTotals,
    mb,
    metric_bundle,
    read_block,
    write_remote,
)
from repro.simulator.timeline import TaskLog

__all__ = ["HOPSimConfig", "HadoopPipeline", "HOPPipeline", "OnePassPipeline"]

Proc = Generator[Any, Any, None]


@dataclass(frozen=True, slots=True)
class HOPSimConfig:
    """MapReduce Online knobs for the simulated pipeline."""

    granularity_bytes: int = 1 * 1024 * 1024
    snapshot_fractions: tuple[float, ...] = (0.25, 0.5, 0.75)
    #: Share of the sort CPU that moves from mappers to reducers ("this
    #: prototype moves some of the sorting work to reducers").
    resort_shift: float = 0.3


class _BasePipeline:
    """Cluster construction, the process cast and result assembly.

    A pipeline supplies ``_map_task`` (one block through the map side),
    ``_new_reducer`` (an object with ``node``, ``mailbox``,
    ``ingest_loop()`` and ``finale()``) and, optionally, ``_extras``.
    """

    engine = "base"

    def __init__(
        self,
        spec: ClusterSpec,
        profile: WorkloadProfile,
        *,
        metric_bucket: float = 10.0,
    ) -> None:
        self.spec = spec
        self.profile = profile
        self.metric_bucket = metric_bucket
        self.sim = Simulator()
        self.cluster = SimCluster(self.sim, spec)
        self.log = TaskLog()
        self.totals = SimTotals()
        self.maps_done = Gate("maps-done")
        self.shuffle_done = Gate("shuffle-done")
        self.n_blocks = max(1, -(-profile.input_bytes // spec.block_bytes))
        self.block_bytes = profile.input_bytes / self.n_blocks
        self.map_out_per_block = self.block_bytes * profile.map_output_ratio
        self.completed_maps = 0
        self._pending_transfers = 0
        self._mailboxes: list[Mailbox] = []
        self._rr = 0

    def _next_reducer(self) -> int:
        """Round-robin reducer selection for transfer-granular delivery."""
        idx = self._rr % self.spec.reducers
        self._rr += 1
        return idx

    # -- placement ---------------------------------------------------------

    def _block_plan(self) -> dict[SimNode, deque[tuple[int, SimNode]]]:
        """Per-compute-node queue of (block id, storage node)."""
        compute = self.cluster.compute_nodes
        plan: dict[SimNode, deque[tuple[int, SimNode]]] = {
            n: deque() for n in compute
        }
        for b in range(self.n_blocks):
            storage = self.cluster.storage_node_for_block(b)
            runner = storage if storage.is_compute else compute[b % len(compute)]
            plan[runner].append((b, storage))
        return plan

    # -- shuffle plumbing ------------------------------------------------------

    def _start_transfer(
        self, mapper: SimNode, target: SimNode, nbytes: float, mailbox: Mailbox
    ) -> None:
        """Move one output unit from a mapper to one reducer's mailbox.

        Outputs are delivered to reducers round-robin at transfer
        granularity; aggregate per-reducer volumes match the hash
        partitioner's even split while keeping the event count linear in
        the number of transfers rather than transfers × reducers.
        """
        self._pending_transfers += 1
        sim = self.sim

        def proc() -> Proc:
            start = sim.now
            if target is not mapper:
                yield Use(mapper.nic_out, nbytes, stream=f"shuffle-{mapper.name}")
                yield Use(target.nic_in, nbytes, stream=f"shuffle-in-{target.name}")
            else:
                # Local segment: no network, a short copy.
                yield Timeout(0.0)
            self.log.record("shuffle", start, sim.now, node=mapper.name)
            self.totals.shuffle_bytes += nbytes
            self.totals.network_messages += 1
            mailbox.put(nbytes)
            self._pending_transfers -= 1
            self._maybe_close_shuffle()

        sim.spawn(proc())

    def _maybe_close_shuffle(self) -> None:
        if self.maps_done.fired and self._pending_transfers == 0:
            for box in self._mailboxes:
                if not box.closed:
                    box.close()
            self.shuffle_done.fire()

    def _map_completed(self) -> None:
        self.completed_maps += 1
        if self.completed_maps == self.n_blocks:
            self.maps_done.fire()
            self._maybe_close_shuffle()

    # -- the cast ----------------------------------------------------------------

    def _map_worker(self, node: SimNode, queue: deque[tuple[int, SimNode]]) -> Proc:
        while queue:
            task_id, storage = queue.popleft()
            yield from self._map_task(task_id, node, storage)

    def _reducer_proc(self, reducer: Any) -> Proc:
        yield from reducer.ingest_loop()
        yield self.shuffle_done.wait()
        yield from reducer.finale()

    def _extras(self) -> dict[str, Any]:
        return {}

    def run(self) -> SimRunResult:
        plan = self._block_plan()
        self._reducers = [
            self._new_reducer(i, self.cluster.reducer_node(i)) for i in range(self.spec.reducers)
        ]
        for node, queue in plan.items():
            for _slot in range(self.spec.map_slots):
                self.sim.spawn(self._map_worker(node, queue))
        for reducer in self._reducers:
            self.sim.spawn(self._reducer_proc(reducer))
        self.sim.run()
        return self._result(self._extras())

    # -- results -----------------------------------------------------------------

    def _result(self, extras: dict[str, Any]) -> SimRunResult:
        horizon = max(self.sim.now, self.metric_bucket)
        series = metric_bundle(self.cluster.compute_nodes, horizon, self.metric_bucket)
        return SimRunResult(
            engine=self.engine,
            workload=self.profile.name,
            spec=self.spec,
            profile=self.profile,
            makespan=self.sim.now,
            task_log=self.log,
            series=series,
            totals=self.totals,
            extras=extras,
        )


class _SortMergeReducer:
    """Reduce-side state shared by the Hadoop and HOP pipelines."""

    def __init__(
        self,
        pipeline: _BasePipeline,
        index: int,
        node: SimNode,
        *,
        extra_ingest_cpu_per_mb: float = 0.0,
    ) -> None:
        self.p = pipeline
        self.index = index
        self.node = node
        self.extra_ingest_cpu_per_mb = extra_ingest_cpu_per_mb
        self.mailbox = Mailbox(f"reduce-{index}")
        pipeline._mailboxes.append(self.mailbox)
        self.mem_bytes = 0.0
        self.runs: list[float] = []
        self.received = 0.0
        # Stagger spill thresholds (0.75x..1.25x of the buffer) so the
        # fleet's reducers do not spill and merge in lock-step — real
        # clusters desynchronise through shuffle timing noise.
        r = max(1, pipeline.spec.reducers - 1)
        self.spill_threshold = pipeline.spec.reduce_buffer_bytes * (
            0.75 + 0.5 * index / r
        )

    # -- helpers ------------------------------------------------------------

    def _spill(self) -> Proc:
        nbytes = self.mem_bytes
        self.mem_bytes = 0.0
        yield Use(
            self.node.intermediate_disk,
            nbytes,
            stream=f"rspill-{self.index}",
            tag="write",
        )
        self.runs.append(nbytes)
        self.p.totals.reduce_spill_bytes += nbytes

    def _merge_pass(self) -> Proc:
        p = self.p
        self.runs.sort()
        fan_in = min(p.spec.merge_factor, len(self.runs))
        victims, self.runs = self.runs[:fan_in], self.runs[fan_in:]
        total = sum(victims)
        start = p.sim.now
        yield Use(
            self.node.intermediate_disk,
            total,
            stream=f"merge-r-{self.index}",
            tag="read",
        )
        yield Use(
            self.node.cpu,
            p.profile.merge_cpu_per_mb * mb(total),
            stream=f"merge-{self.index}",
        )
        yield Use(
            self.node.intermediate_disk,
            total,
            stream=f"merge-w-{self.index}",
            tag="write",
        )
        self.runs.append(total)
        p.totals.merge_read_bytes += total
        p.totals.merge_write_bytes += total
        p.totals.merge_passes += 1
        p.log.record("merge", start, p.sim.now, node=self.node.name, task_id=self.index)

    def ingest_loop(self) -> Proc:
        """Receive segments until the shuffle closes; spill and merge."""
        p = self.p
        while True:
            item = yield self.mailbox.get()
            if item is None:
                break
            nbytes = float(item)
            self.received += nbytes
            self.mem_bytes += nbytes
            if self.extra_ingest_cpu_per_mb > 0:
                yield Use(
                    self.node.cpu,
                    self.extra_ingest_cpu_per_mb * mb(nbytes),
                    stream=f"resort-{self.index}",
                )
            if self.mem_bytes >= self.spill_threshold:
                yield from self._spill()
            # Hadoop's background merge: trigger at 2F-1 on-disk files,
            # merge the F smallest, leave F-1 — rewrite stays ~linear.
            if len(self.runs) >= 2 * p.spec.merge_factor - 1:
                yield from self._merge_pass()

    def finale(self) -> Proc:
        """Blocking multi-pass merge, then the final scan + reduce + write."""
        p = self.p
        if self.runs and self.mem_bytes > 0:
            yield from self._spill()
        while len(self.runs) > p.spec.merge_factor:
            yield from self._merge_pass()
        start = p.sim.now
        on_disk = sum(self.runs)
        if on_disk > 0:
            yield Use(
                self.node.intermediate_disk,
                on_disk,
                stream=f"final-{self.index}",
                tag="read",
            )
            p.totals.merge_read_bytes += on_disk
        data = self.received
        yield Use(
            self.node.cpu,
            (p.profile.merge_cpu_per_mb + p.profile.reduce_cpu_per_mb) * mb(data),
            stream=f"reduce-{self.index}",
        )
        out_bytes = (
            p.profile.input_bytes * p.profile.reduce_output_ratio / p.spec.reducers
        )
        storage = p.cluster.storage_node_for_block(self.index)
        yield from write_remote(
            self.node, storage, out_bytes, p.totals, stream=f"out-{self.index}"
        )
        p.totals.output_bytes += out_bytes
        p.log.record("reduce", start, p.sim.now, node=self.node.name, task_id=self.index)


class HadoopPipeline(_BasePipeline):
    """Stock Hadoop: sorted map output, pull shuffle, blocking merge."""

    engine = "hadoop"

    def _map_task(self, task_id: int, node: SimNode, storage: SimNode) -> Proc:
        p = self.profile
        start = self.sim.now
        yield from read_block(
            node, storage, self.block_bytes, self.totals, stream=f"map-in-{node.name}"
        )
        out_bytes = self.map_out_per_block
        cpu = (
            (p.parse_cpu_per_mb + p.map_cpu_per_mb) * mb(self.block_bytes)
            + (p.sort_cpu_per_mb + p.combine_cpu_per_mb) * mb(self.block_bytes * _presort_ratio(p))
        )
        yield Use(node.cpu, cpu, stream=f"map-{node.name}")
        # Synchronous map-output write (fault tolerance), §III.B.2.
        yield Use(
            node.intermediate_disk,
            out_bytes,
            stream=f"mapout-{node.name}",
            tag="write",
        )
        self.totals.map_output_bytes += out_bytes
        self.log.record("map", start, self.sim.now, node=node.name, task_id=task_id)
        reducer = self._reducers[self._next_reducer()]
        self._start_transfer(node, reducer.node, out_bytes, reducer.mailbox)
        self._map_completed()

    def _new_reducer(self, index: int, node: SimNode) -> _SortMergeReducer:
        return _SortMergeReducer(self, index, node)


def _presort_ratio(p: WorkloadProfile) -> float:
    """Bytes sorted per input byte: map output *before* the combiner.

    The combiner shrinks what is written/shuffled, but the sort happens
    first, over the raw map output.  For combiner workloads the raw output
    is roughly input-sized (one small pair per record); without a combiner
    it equals the final map-output ratio.
    """
    if p.combine_cpu_per_mb > 0:
        return 1.0
    return p.map_output_ratio


class HOPPipeline(_BasePipeline):
    """MapReduce Online: pipelined push, snapshots, same sort-merge core."""

    engine = "hop"

    def __init__(
        self,
        spec: ClusterSpec,
        profile: WorkloadProfile,
        *,
        hop: HOPSimConfig | None = None,
        metric_bucket: float = 10.0,
    ) -> None:
        super().__init__(spec, profile, metric_bucket=metric_bucket)
        self.hop = hop or HOPSimConfig()
        self._next_snapshot = 0
        self.snapshots_taken: list[tuple[float, float]] = []  # (fraction, time)

    def _map_task(self, task_id: int, node: SimNode, storage: SimNode) -> Proc:
        p = self.profile
        hop = self.hop
        start = self.sim.now
        yield from read_block(
            node, storage, self.block_bytes, self.totals, stream=f"map-in-{node.name}"
        )
        out_bytes = self.map_out_per_block
        n_chunks = max(1, int(out_bytes // hop.granularity_bytes))
        chunk_bytes = out_bytes / n_chunks
        mapper_sort = p.sort_cpu_per_mb * (1.0 - hop.resort_shift)
        cpu_per_chunk = (
            (p.parse_cpu_per_mb + p.map_cpu_per_mb) * mb(self.block_bytes / n_chunks)
            + (mapper_sort + p.combine_cpu_per_mb)
            * mb(self.block_bytes * _presort_ratio(p) / n_chunks)
        )
        for _chunk in range(n_chunks):
            yield Use(node.cpu, cpu_per_chunk, stream=f"map-{node.name}")
            reducer = self._reducers[self._next_reducer()]
            self._start_transfer(node, reducer.node, chunk_bytes, reducer.mailbox)
        self.totals.map_output_bytes += out_bytes
        self.log.record("map", start, self.sim.now, node=node.name, task_id=task_id)
        self._map_completed()
        self._maybe_snapshot()

    def _maybe_snapshot(self) -> None:
        fractions = self.hop.snapshot_fractions
        while (
            self._next_snapshot < len(fractions)
            and self.completed_maps >= fractions[self._next_snapshot] * self.n_blocks
        ):
            fraction = fractions[self._next_snapshot]
            self._next_snapshot += 1
            self.snapshots_taken.append((fraction, self.sim.now))
            for reducer in self._reducers:
                self.sim.spawn(self._snapshot_proc(reducer, fraction))

    def _snapshot_proc(self, reducer: _SortMergeReducer, fraction: float) -> Proc:
        """Re-merge everything received so far and apply the reduce fn.

        "This is done by repeating the merge operation for each snapshot
        ... and may incur a significant I/O overhead in doing so."
        """
        p = self.profile
        start = self.sim.now
        on_disk = sum(reducer.runs)
        if on_disk > 0:
            yield Use(
                reducer.node.intermediate_disk,
                on_disk,
                stream=f"snap-{reducer.index}",
                tag="read",
            )
            self.totals.snapshot_read_bytes += on_disk
        data = reducer.received
        yield Use(
            reducer.node.cpu,
            (p.merge_cpu_per_mb + p.reduce_cpu_per_mb) * mb(data),
            stream=f"snap-{reducer.index}",
        )
        self.log.record(
            "merge", start, self.sim.now, node=reducer.node.name, task_id=reducer.index
        )

    def _new_reducer(self, index: int, node: SimNode) -> _SortMergeReducer:
        resort_cpu = self.profile.sort_cpu_per_mb * self.hop.resort_shift
        return _SortMergeReducer(self, index, node, extra_ingest_cpu_per_mb=resort_cpu)

    def _extras(self) -> dict[str, Any]:
        return {"snapshots": list(self.snapshots_taken)}


class _HashReducer:
    """Reduce-side state of the one-pass pipeline: hash update on arrival."""

    def __init__(self, pipeline: _BasePipeline, index: int, node: SimNode) -> None:
        self.p = pipeline
        self.index = index
        self.node = node
        self.mailbox = Mailbox(f"op-reduce-{index}")
        pipeline._mailboxes.append(self.mailbox)
        self.received = 0.0
        self.spilled = 0.0

    def ingest_loop(self) -> Proc:
        p, node, index = self.p.profile, self.node, self.index
        spill_fraction = 1.0 - p.state_fit_fraction
        while True:
            item = yield self.mailbox.get()
            if item is None:
                break
            nbytes = float(item)
            self.received += nbytes
            # Incremental hash update on arrival.
            yield Use(node.cpu, p.hash_cpu_per_mb * mb(nbytes), stream=f"hash-{index}")
            overflow = nbytes * spill_fraction
            if overflow > 0:
                yield Use(
                    node.intermediate_disk,
                    overflow,
                    stream=f"ospill-{index}",
                    tag="write",
                )
                self.spilled += overflow
                self.p.totals.reduce_spill_bytes += overflow

    def finale(self) -> Proc:
        """One read of any spilled state, the reduce/finalize CPU, and the
        output write.  No multi-pass merge exists."""
        pipe, p, node, index = self.p, self.p.profile, self.node, self.index
        start = pipe.sim.now
        if self.spilled > 0:
            yield Use(
                node.intermediate_disk, self.spilled, stream=f"ofin-{index}", tag="read"
            )
        yield Use(node.cpu, p.reduce_cpu_per_mb * mb(self.received), stream=f"fin-{index}")
        out_bytes = p.input_bytes * p.reduce_output_ratio / pipe.spec.reducers
        storage = pipe.cluster.storage_node_for_block(index)
        yield from write_remote(node, storage, out_bytes, pipe.totals, stream=f"out-{index}")
        pipe.totals.output_bytes += out_bytes
        pipe.log.record("reduce", start, pipe.sim.now, node=node.name, task_id=index)


class OnePassPipeline(_BasePipeline):
    """The paper's hash-based engine at cluster scale."""

    engine = "onepass"

    #: Push chunk size: coarse enough that per-message overhead is noise.
    chunk_bytes = 4 * 1024 * 1024

    def _map_task(self, task_id: int, node: SimNode, storage: SimNode) -> Proc:
        p = self.profile
        start = self.sim.now
        yield from read_block(
            node, storage, self.block_bytes, self.totals, stream=f"map-in-{node.name}"
        )
        out_bytes = self.map_out_per_block
        # No sorting: parse + map fn + hash partitioning/aggregation.
        cpu = (p.parse_cpu_per_mb + p.map_cpu_per_mb) * mb(self.block_bytes) + (
            p.hash_cpu_per_mb * mb(self.block_bytes * _presort_ratio(p))
        )
        yield Use(node.cpu, cpu, stream=f"map-{node.name}")
        self.totals.map_output_bytes += out_bytes
        self.log.record("map", start, self.sim.now, node=node.name, task_id=task_id)
        n_chunks = max(1, int(out_bytes // self.chunk_bytes))
        chunk = out_bytes / n_chunks
        for _c in range(n_chunks):
            reducer = self._reducers[self._next_reducer()]
            self._start_transfer(node, reducer.node, chunk, reducer.mailbox)
        self._map_completed()

    def _new_reducer(self, index: int, node: SimNode) -> _HashReducer:
        return _HashReducer(self, index, node)

    def _extras(self) -> dict[str, Any]:
        return {
            "received": {r.index: r.received for r in self._reducers},
            "spilled": {r.index: r.spilled for r in self._reducers},
        }
