"""Post-run metric extraction: CPU utilisation, iowait, bytes read.

The paper's Fig. 2(b–f) and Fig. 4 are time series sampled by iostat/ps on
each node.  Here the equivalent series are derived from the busy intervals
each :class:`~repro.simulator.resources.ServiceBank` recorded:

* **CPU utilisation** — busy-core fraction per time bucket, averaged over
  nodes;
* **CPU iowait** — fraction of a bucket in which cores sat idle while the
  node's disks were busy (idle ∧ disk-busy), the standard iowait meaning;
* **bytes read/written per second** — disk interval byte counts binned by
  completion-weighted overlap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.series import bin_overlap, bucket_edges
from repro.simulator.resources import Interval, ServiceBank

__all__ = ["SeriesBundle", "bin_busy_fraction", "bin_bytes", "node_metrics", "MetricSampler"]


def bin_busy_fraction(
    intervals: list[Interval], horizon: float, bucket: float, servers: int
) -> np.ndarray:
    """Per-bucket busy fraction of a bank of ``servers`` servers."""
    if bucket <= 0 or horizon <= 0:
        raise ValueError("bucket and horizon must be positive")
    busy = bin_overlap(
        bucket_edges(horizon, bucket),
        [iv.start for iv in intervals],
        [iv.end for iv in intervals],
    )
    return np.clip(busy / (bucket * servers), 0.0, 1.0)


def bin_bytes(intervals: list[Interval], horizon: float, bucket: float) -> np.ndarray:
    """Per-bucket bytes transferred (spread uniformly over each service)."""
    moved = [iv for iv in intervals if iv.end > iv.start and iv.nbytes != 0]
    return bin_overlap(
        bucket_edges(horizon, bucket),
        [iv.start for iv in moved],
        [iv.end for iv in moved],
        [iv.nbytes / (iv.end - iv.start) for iv in moved],
    )


@dataclass(slots=True)
class SeriesBundle:
    """The full set of figure series for one simulated run."""

    times: np.ndarray
    cpu_utilization: np.ndarray
    cpu_iowait: np.ndarray
    disk_read_bytes_per_s: np.ndarray
    disk_write_bytes_per_s: np.ndarray

    def as_dict(self) -> dict[str, list[float]]:
        return {
            "times": self.times.tolist(),
            "cpu_utilization": self.cpu_utilization.tolist(),
            "cpu_iowait": self.cpu_iowait.tolist(),
            "disk_read_bytes_per_s": self.disk_read_bytes_per_s.tolist(),
            "disk_write_bytes_per_s": self.disk_write_bytes_per_s.tolist(),
        }


def node_metrics(
    cpu: ServiceBank,
    disks: list[ServiceBank],
    horizon: float,
    bucket: float,
) -> SeriesBundle:
    """Series for one node."""
    times = bucket_edges(horizon, bucket)[:-1]
    cpu_util = bin_busy_fraction(cpu.intervals, horizon, bucket, cpu.servers)
    disk_busy = np.zeros_like(cpu_util)
    reads = np.zeros_like(cpu_util)
    writes = np.zeros_like(cpu_util)
    for disk in disks:
        disk_busy = np.maximum(
            disk_busy, bin_busy_fraction(disk.intervals, horizon, bucket, disk.servers)
        )
        read_iv = [iv for iv in disk.intervals if iv.tag == "read"]
        write_iv = [iv for iv in disk.intervals if iv.tag == "write"]
        reads += bin_bytes(read_iv, horizon, bucket) / bucket
        writes += bin_bytes(write_iv, horizon, bucket) / bucket
    iowait = np.minimum(1.0 - cpu_util, disk_busy)
    return SeriesBundle(
        times=times,
        cpu_utilization=cpu_util,
        cpu_iowait=np.clip(iowait, 0.0, 1.0),
        disk_read_bytes_per_s=reads,
        disk_write_bytes_per_s=writes,
    )


class MetricSampler:
    """Aggregates per-node series into cluster-average series.

    The paper plots cluster-wide averages (its profiling tool logs every
    node and the figures show the fleet's behaviour); averaging per-node
    series preserves the shapes.
    """

    def __init__(self, bucket: float = 10.0) -> None:
        if bucket <= 0:
            raise ValueError("bucket must be positive")
        self.bucket = bucket

    def cluster_series(
        self,
        nodes: list[tuple[ServiceBank, list[ServiceBank]]],
        horizon: float,
    ) -> SeriesBundle:
        bundles = [
            node_metrics(cpu, disks, horizon, self.bucket) for cpu, disks in nodes
        ]
        times = bundles[0].times
        return SeriesBundle(
            times=times,
            cpu_utilization=np.mean([b.cpu_utilization for b in bundles], axis=0),
            cpu_iowait=np.mean([b.cpu_iowait for b in bundles], axis=0),
            disk_read_bytes_per_s=np.sum(
                [b.disk_read_bytes_per_s for b in bundles], axis=0
            ),
            disk_write_bytes_per_s=np.sum(
                [b.disk_write_bytes_per_s for b in bundles], axis=0
            ),
        )
