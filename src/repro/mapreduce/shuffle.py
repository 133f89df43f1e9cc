"""Pull-based shuffle: reducers fetch completed map outputs.

Hadoop's reducers periodically poll a central service for completed map
tasks and then pull their partition's segment directly from each mapper's
local disk.  :class:`ShuffleService` is that central registry; fetching a
segment reads the mapper's disk (accounted there) and charges the network
transfer to the fetching task's counters.

The paper notes that under normal circumstances a segment is fetched "soon
after a mapper completes and so this data is often available in the
mapper's memory"; the ``serve_from_page_cache`` flag models that by
skipping the mapper-side disk read for fresh segments.  Re-fetches during
recovery are never that lucky: they always pay the disk read.

Fault tolerance: with a fault plan attached, fetches can fail transiently
(the fetcher backs off exponentially, capped, per
:class:`~repro.mapreduce.recovery.FetchRetryPolicy`); a segment that stays
unfetchable past the retry budget raises :class:`FetchFailedError` — the
"too many fetch failures" signal on which the engine re-executes the map
task.  ``invalidate`` / ``reset_partition`` support node-crash recovery:
losing a mapper's disk withdraws its outputs, losing a reducer clears its
partition's fetch marks so a fresh task can re-pull everything.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

from repro.io.disk import LocalDisk
from repro.io.runio import KeyedRun
from repro.io.serialization import iter_frames
from repro.mapreduce.counters import C, Counters
from repro.mapreduce.faults import FaultPlan
from repro.mapreduce.recovery import FetchRetryPolicy
from repro.mapreduce.sortmerge import MapOutput, MapOutputSegment

__all__ = ["FetchedSegment", "FetchFailedError", "ShuffleService"]


class FetchFailedError(RuntimeError):
    """A segment stayed unfetchable past the retry budget (output lost)."""

    def __init__(self, map_task: int, partition: int) -> None:
        super().__init__(
            f"segment (map {map_task}, partition {partition}) failed too many fetches"
        )
        self.map_task = map_task
        self.partition = partition


@dataclass(frozen=True, slots=True)
class FetchedSegment:
    """One segment delivered to a reducer."""

    map_task: int
    partition: int
    #: The segment's bytes and its map task's sorted keys, undecoded: a
    #: reducer moves the frames by the keys and decodes only at its merge.
    run: KeyedRun
    nbytes: int

    @property
    def pairs(self) -> list[tuple[Any, Any]]:
        """The decoded pairs (one unpickle per record; the engines never ask)."""
        return list(iter_frames(self.run.data))


class ShuffleService:
    """Registry of completed map outputs, keyed by map task id."""

    def __init__(
        self,
        mapper_disks: dict[str, LocalDisk],
        *,
        serve_from_page_cache: bool = True,
        fault_plan: FaultPlan | None = None,
        retry_policy: FetchRetryPolicy | None = None,
    ) -> None:
        self.mapper_disks = mapper_disks
        self.serve_from_page_cache = serve_from_page_cache
        self.fault_plan = fault_plan
        self.retry_policy = retry_policy or FetchRetryPolicy()
        self._completed: dict[int, MapOutput] = {}
        self._fetched: set[tuple[int, int]] = set()
        self._fetch_counts: dict[tuple[int, int], int] = {}
        self.network_bytes = 0
        self.fetch_failures = 0
        self.backoff_ms = 0.0
        self.refetched_bytes = 0

    # -- mapper side ------------------------------------------------------

    def register(self, output: MapOutput) -> None:
        """A map task announces completion (the 'completed mappers' poll)."""
        if output.task_id in self._completed:
            raise ValueError(f"map task {output.task_id} already registered")
        self._completed[output.task_id] = output

    def invalidate(self, map_task: int) -> None:
        """Withdraw a map task's output (its node died / files are gone).

        Fetch marks are kept: segments a reducer already pulled are safe at
        that reducer, so a re-registered re-execution only serves what is
        still missing — re-delivery is deduplicated at this layer.
        """
        self._completed.pop(map_task, None)

    @property
    def completed_maps(self) -> list[int]:
        return sorted(self._completed)

    def outputs_on(self, node: str) -> list[int]:
        """Completed map tasks whose output files live on ``node``."""
        return sorted(
            task_id
            for task_id, out in self._completed.items()
            if out.node == node
        )

    # -- reducer side -------------------------------------------------------

    def pending_fetches(self, partition: int) -> list[int]:
        """Map tasks with an unfetched segment for ``partition``."""
        return [
            task_id
            for task_id, out in sorted(self._completed.items())
            if partition in out.segments and (task_id, partition) not in self._fetched
        ]

    def reset_partition(self, partition: int) -> None:
        """Forget that ``partition``'s segments were fetched.

        Used when the reduce task holding them is lost: a fresh attempt
        must re-pull every segment from the mapper disks.
        """
        self._fetched = {key for key in self._fetched if key[1] != partition}

    def fetch(self, map_task: int, partition: int) -> FetchedSegment:
        """Pull one segment from the mapper that produced it.

        Transient failures injected by the fault plan are retried with
        capped exponential backoff (simulated time, accumulated in
        :attr:`backoff_ms`); exceeding the retry budget raises
        :class:`FetchFailedError`.  The map task's keys go with the bytes
        and are then dropped; a repeat pull during recovery decodes them.
        """
        key = (map_task, partition)
        if key in self._fetched:
            raise ValueError(f"segment {key} already fetched")
        output = self._completed[map_task]
        segment: MapOutputSegment = output.segments[partition]

        failures = 0
        while self.fault_plan is not None and self.fault_plan.take_fetch_fault(
            map_task, partition
        ):
            failures += 1
            self.fetch_failures += 1
            self.backoff_ms += self.retry_policy.backoff_ms(failures)
            if failures >= self.retry_policy.max_retries:
                raise FetchFailedError(map_task, partition)

        disk = self.mapper_disks[output.node]
        refetch = self._fetch_counts.get(key, 0) > 0
        use_cache = self.serve_from_page_cache
        if refetch:
            # A repeat pull during recovery: long past any page-cache
            # residency, and its bytes are rework, not first-time shuffle.
            use_cache = False
            self.refetched_bytes += segment.nbytes
        # Fresh output is still in the mapper's page cache: no disk read,
        # but the bytes still cross the network.
        data = disk.peek(segment.path) if use_cache else disk.read(segment.path)
        keys = segment.keys
        if keys is None:  # a repeat pull: the keys went with the first
            keys = [pair[0] for pair in iter_frames(data)]
        output.segments[partition] = replace(segment, keys=None)
        self._fetched.add(key)
        self._fetch_counts[key] = self._fetch_counts.get(key, 0) + 1
        self.network_bytes += segment.nbytes
        return FetchedSegment(
            map_task=map_task,
            partition=partition,
            run=KeyedRun(data, keys),
            nbytes=segment.nbytes,
        )

    def fetch_all(self, partition: int) -> list[FetchedSegment]:
        """Pull every currently pending segment for ``partition``."""
        return [self.fetch(task_id, partition) for task_id in self.pending_fetches(partition)]

    def merge_stats(self, counters: Counters) -> None:
        """Fold fetch-retry and refetch accounting into the job counters."""
        if self.fetch_failures:
            counters.inc(C.SHUFFLE_FETCH_FAILURES, self.fetch_failures)
        if self.backoff_ms:
            counters.inc(C.SHUFFLE_BACKOFF_MS, self.backoff_ms)
        if self.refetched_bytes:
            counters.inc(C.BYTES_RESHUFFLED, self.refetched_bytes)

    def cleanup(self) -> None:
        """Delete served map-output files from the mapper disks."""
        for output in self._completed.values():
            disk = self.mapper_disks[output.node]
            for segment in output.segments.values():
                if disk.exists(segment.path):
                    disk.delete(segment.path)
