"""A local disk with full I/O accounting.

The real (executable) engine in this repository does all of its "disk" I/O
through :class:`LocalDisk`.  Data lives in process memory — running the
256 GB experiments byte-for-byte is the simulator's job — but every read,
write and delete is accounted exactly: byte counts, operation counts,
sequential/random classification, and simulated device busy-time derived
from a :class:`~repro.io.device.DeviceProfile`.

These counters are what the benchmark harness reports for Table I
(map-output and reduce-spill volumes) and for the §V claim that the
frequent-key cache cuts reduce-side spill I/O by orders of magnitude.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.io.device import RAMDISK, DeviceProfile

__all__ = ["DiskStats", "DiskExport", "LocalDisk", "DiskFullError"]


class DiskFullError(OSError):
    """Raised when a write would exceed the device capacity."""


@dataclass(slots=True)
class DiskStats:
    """Cumulative I/O counters for one :class:`LocalDisk`.

    ``busy_time`` is the simulated seconds the device spent servicing
    requests, derived from the device profile; it is the basis for the
    utilisation numbers in the paper's Fig. 2.
    """

    bytes_read: int = 0
    bytes_written: int = 0
    read_ops: int = 0
    write_ops: int = 0
    random_ops: int = 0
    sequential_ops: int = 0
    deletes: int = 0
    busy_time: float = 0.0

    @property
    def total_bytes(self) -> int:
        return self.bytes_read + self.bytes_written

    @property
    def total_ops(self) -> int:
        return self.read_ops + self.write_ops

    def snapshot(self) -> "DiskStats":
        """Return an independent copy of the current counters."""
        return DiskStats(
            bytes_read=self.bytes_read,
            bytes_written=self.bytes_written,
            read_ops=self.read_ops,
            write_ops=self.write_ops,
            random_ops=self.random_ops,
            sequential_ops=self.sequential_ops,
            deletes=self.deletes,
            busy_time=self.busy_time,
        )

    def delta(self, earlier: "DiskStats") -> "DiskStats":
        """Return counters accumulated since ``earlier`` (a prior snapshot)."""
        return DiskStats(
            bytes_read=self.bytes_read - earlier.bytes_read,
            bytes_written=self.bytes_written - earlier.bytes_written,
            read_ops=self.read_ops - earlier.read_ops,
            write_ops=self.write_ops - earlier.write_ops,
            random_ops=self.random_ops - earlier.random_ops,
            sequential_ops=self.sequential_ops - earlier.sequential_ops,
            deletes=self.deletes - earlier.deletes,
            busy_time=self.busy_time - earlier.busy_time,
        )


@dataclass(slots=True)
class _FileEntry:
    data: bytearray = field(default_factory=bytearray)


@dataclass(slots=True)
class DiskExport:
    """The after-state of a task that ran against a *shadow* disk.

    Parallel task execution runs each task's I/O against a fresh
    :class:`LocalDisk` with the same device profile (so per-op accounting
    is identical to running in place); the worker ships this export back
    and the coordinator :meth:`LocalDisk.absorb`-s it into the real node
    disk.  ``removed`` lists preloaded files the task deleted (their
    delete ops are already in ``stats``).
    """

    files: dict[str, bytes]
    stats: DiskStats
    last_file: str | None
    removed: tuple[str, ...] = ()


class LocalDisk:
    """An accounted, memory-backed file store for one simulated node.

    Files are flat names (the engine namespaces them, e.g.
    ``"spill/map-0003.part2"``).  Appending to the file that was most
    recently touched counts as sequential I/O; switching files counts as a
    random operation — a deliberately simple model of the head-contention
    effect the paper measures when map output, shuffle and merge traffic
    share one spindle.
    """

    def __init__(self, profile: DeviceProfile = RAMDISK, *, name: str = "disk0") -> None:
        self.profile = profile
        self.name = name
        self.stats = DiskStats()
        self._files: dict[str, _FileEntry] = {}
        self._used = 0  # running total of stored bytes: the capacity check is O(1)
        self._last_file: str | None = None
        # Optional fault injector (a FaultPlan with torn_writes/short_reads);
        # when attached, writes and reads pass through its filters so seeded
        # disk corruption exercises the recovery layers' checksum paths.
        self.fault_injector = None

    # -- introspection ----------------------------------------------------

    def exists(self, path: str) -> bool:
        return path in self._files

    def size(self, path: str) -> int:
        return len(self._entry(path).data)

    def used(self) -> int:
        """Total bytes currently stored on the device."""
        return self._used

    def list_files(self, prefix: str = "") -> list[str]:
        return sorted(p for p in self._files if p.startswith(prefix))

    def _entry(self, path: str) -> _FileEntry:
        try:
            return self._files[path]
        except KeyError:
            raise FileNotFoundError(path) from None

    def _install(self, path: str, data: bytes = b"") -> _FileEntry:
        """Make ``data`` the contents of ``path``, replacing any old file."""
        old = self._files.get(path)
        if old is not None:
            self._used -= len(old.data)
        entry = self._files[path] = _FileEntry(bytearray(data))
        self._used += len(data)
        return entry

    def _remove(self, path: str) -> None:
        self._used -= len(self._files.pop(path).data)

    # -- accounting helpers ------------------------------------------------

    def _account(self, path: str, nbytes: int, *, write: bool) -> None:
        sequential = path == self._last_file
        self._last_file = path
        if sequential:
            self.stats.sequential_ops += 1
        else:
            self.stats.random_ops += 1
        self.stats.busy_time += self.profile.io_time(nbytes, sequential=sequential)
        if write:
            self.stats.bytes_written += nbytes
            self.stats.write_ops += 1
        else:
            self.stats.bytes_read += nbytes
            self.stats.read_ops += 1

    # -- operations ---------------------------------------------------------

    def create(self, path: str, *, overwrite: bool = False) -> None:
        """Create an empty file at ``path``."""
        if path in self._files and not overwrite:
            raise FileExistsError(path)
        self._install(path)

    def append(self, path: str, data: bytes) -> None:
        """Append ``data`` to ``path``, creating the file if needed."""
        if self.fault_injector is not None:
            data = self.fault_injector.filter_write(path, data)
        entry = self._files.get(path) or self._install(path)
        if self._used + len(data) > self.profile.capacity:
            raise DiskFullError(
                f"{self.name}: write of {len(data)} bytes exceeds capacity "
                f"{self.profile.capacity}"
            )
        entry.data.extend(data)
        self._used += len(data)
        self._account(path, len(data), write=True)

    def write(self, path: str, data: bytes, *, overwrite: bool = True) -> None:
        """Write ``data`` as the full contents of ``path``."""
        if path in self._files and not overwrite:
            raise FileExistsError(path)
        self._install(path)
        self.append(path, data)

    def read(self, path: str) -> bytes:
        """Read the full contents of ``path``."""
        data = bytes(self._entry(path).data)
        self._account(path, len(data), write=False)
        if self.fault_injector is not None:
            data = self.fault_injector.filter_read(path, data)
        return data

    def peek(self, path: str) -> bytes:
        """Read ``path`` without charging device I/O.

        Models a page-cache hit: the bytes were written moments ago and are
        still resident in the writer's memory.  Used by the shuffle when a
        reducer fetches a just-completed map output.
        """
        return bytes(self._entry(path).data)

    def read_range(self, path: str, offset: int, length: int) -> bytes:
        """Read ``length`` bytes starting at ``offset``."""
        data = self._entry(path).data
        if offset < 0 or offset > len(data):
            raise ValueError(f"offset {offset} out of range for {path}")
        chunk = bytes(data[offset : offset + length])
        self._account(path, len(chunk), write=False)
        if self.fault_injector is not None:
            chunk = self.fault_injector.filter_read(path, chunk)
        return chunk

    def stream(self, path: str, chunk_size: int = 1 << 20) -> Iterator[bytes]:
        """Yield the contents of ``path`` in ``chunk_size`` pieces.

        Each chunk is accounted individually, so a streaming scan interleaved
        with writes to other files shows up as alternating random ops — the
        same effect that makes multi-pass merge so expensive on one spindle.
        """
        if chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        offset = 0
        size = self.size(path)
        while offset < size:
            yield self.read_range(path, offset, chunk_size)
            offset += chunk_size

    def delete(self, path: str) -> None:
        """Remove ``path``; missing files raise :class:`FileNotFoundError`."""
        self._entry(path)
        self._remove(path)
        self.stats.deletes += 1
        if self._last_file == path:
            self._last_file = None

    def delete_prefix(self, prefix: str) -> int:
        """Delete every file whose name starts with ``prefix``; return count."""
        victims = self.list_files(prefix)
        for path in victims:
            self.delete(path)
        return len(victims)

    # -- shadow-disk transfer ------------------------------------------------

    def preload(self, files: dict[str, bytes]) -> None:
        """Install files without accounting (shadow-disk task input).

        The bytes already exist on the real disk; copying them into the
        worker's shadow disk models shared storage, not new I/O.
        """
        for path, data in files.items():
            self._install(path, data)

    def export_state(self, *, preloaded: Iterable[str] = ()) -> DiskExport:
        """Capture files, accounting and head position for :meth:`absorb`."""
        removed = tuple(sorted(p for p in preloaded if p not in self._files))
        return DiskExport(
            files={path: bytes(e.data) for path, e in self._files.items()},
            stats=self.stats.snapshot(),
            last_file=self._last_file,
            removed=removed,
        )

    def absorb(self, export: DiskExport, *, install: bool = True) -> None:
        """Merge a shadow disk's after-state into this disk.

        Accounting merges unconditionally (the I/O really happened, on
        behalf of this device).  With ``install`` the exported files
        appear here, files the task deleted disappear, and the head
        position (``_last_file``) moves to where the task left it — i.e.
        the disk ends up exactly as if the task had run in place.
        """
        s, e = self.stats, export.stats
        s.bytes_read += e.bytes_read
        s.bytes_written += e.bytes_written
        s.read_ops += e.read_ops
        s.write_ops += e.write_ops
        s.random_ops += e.random_ops
        s.sequential_ops += e.sequential_ops
        s.deletes += e.deletes
        s.busy_time += e.busy_time
        if install:
            for path, data in export.files.items():
                self._install(path, data)
            for path in export.removed:
                if path in self._files:
                    self._remove(path)
            self._last_file = export.last_file

    def rename(self, src: str, dst: str) -> None:
        if dst in self._files:
            raise FileExistsError(dst)
        self._files[dst] = self._entry(src)
        del self._files[src]
        if self._last_file == src:
            self._last_file = dst

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"LocalDisk({self.name!r}, profile={self.profile.name!r}, "
            f"files={len(self._files)}, used={self.used()})"
        )
