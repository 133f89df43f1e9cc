"""I/O substrate: accounted local disks, device profiles, serialization.

Everything the executable engines persist goes through
:class:`~repro.io.disk.LocalDisk`, which counts bytes, operations and
simulated device busy-time.  Those counters feed the Table I / §V
reproductions directly.
"""

from repro.io.batch import RecordBatch, merge_segments, sort_bucket
from repro.io.device import HDD_7200RPM, RAMDISK, SSD_SATA, DeviceProfile, transfer_time
from repro.io.disk import DiskFullError, DiskStats, LocalDisk
from repro.io.runio import RunWriter, stream_run, write_run
from repro.io.serialization import (
    BinaryCodec,
    RawLineCodec,
    RecordCodec,
    TextLineCodec,
    encode_frames,
    estimate_size,
    frame_count,
    iter_frames,
)

__all__ = [
    "DeviceProfile",
    "HDD_7200RPM",
    "SSD_SATA",
    "RAMDISK",
    "transfer_time",
    "LocalDisk",
    "DiskStats",
    "DiskFullError",
    "RunWriter",
    "write_run",
    "stream_run",
    "BinaryCodec",
    "TextLineCodec",
    "RawLineCodec",
    "RecordCodec",
    "encode_frames",
    "iter_frames",
    "frame_count",
    "estimate_size",
    "RecordBatch",
    "sort_bucket",
    "merge_segments",
]
