"""The MapReduce programming model: user-facing job specification.

This mirrors the two-function API the paper describes in §II:

* ``map(record) -> iterable of (key, value)``
* ``reduce(key, values) -> iterable of output records``

plus the optional ``combine`` function applied after map (and, in the
baseline, again when reduce-side buffers fill).  A combine function must be
algebraically safe: commutative and associative over values of the same
key, emitting ``(key, value)`` pairs of the same value type it consumes.

An optional ``map_slice(records) -> (pairs, ends)`` maps a front-end slice
in one call: the per-record loop's pairs, in order, as a list, and
``ends[i]`` the length of ``pairs`` after record ``i``'s output.

The same :class:`MapReduceJob` object runs unmodified on both sort-merge
engines — the Hadoop baseline and MapReduce Online.  The hash-based
one-pass engine takes an :class:`~repro.core.engine.OnePassJob`: the same
map function, with the reduce given either as the same ``reduce_fn`` (a
grouping job) or as an aggregate's algebra (an aggregate job, which is
what lets it run incrementally).  Keeping the map/reduce API while
replacing the implementation under it is the portability argument the
paper makes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Any, Callable, Iterable, Iterator, Sequence

__all__ = ["MapFn", "MapSliceFn", "ReduceFn", "CombineFn", "JobConfig", "MapReduceJob"]

MapFn = Callable[[Any], Iterable[tuple[Any, Any]]]
MapSliceFn = Callable[[list[Any]], tuple[list[tuple[Any, Any]], Sequence[int]]]
ReduceFn = Callable[[Any, Iterator[Any]], Iterable[Any]]
CombineFn = Callable[[Any, Iterator[Any]], Iterable[tuple[Any, Any]]]


@dataclass(slots=True)
class JobConfig:
    """Engine tuning knobs, named after their Hadoop equivalents.

    Parameters
    ----------
    num_reducers:
        Number of reduce tasks (``r`` in the paper; 40 in its cluster runs).
    map_buffer_bytes:
        Map-side output buffer (``io.sort.mb``); a full buffer triggers a
        sort-and-spill in the baseline or a hash-partition flush in the
        one-pass engine.
    merge_factor:
        ``F``, the fan-in of the multi-pass merge (``io.sort.factor``).
    reduce_buffer_bytes:
        Shuffle buffer on each reducer; overflow spills sorted runs (or
        hash partitions) to the reducer's local disk.
    combine_on_spill:
        Apply the combiner when spilling, as Hadoop does.
    batch:
        Inert; see the comment on the field.
    """

    num_reducers: int = 2
    map_buffer_bytes: int = 8 * 1024 * 1024
    merge_factor: int = 10
    reduce_buffer_bytes: int = 32 * 1024 * 1024
    combine_on_spill: bool = True
    #: Inert: read by nothing in ``src/``.  Kept, with its default, because
    #: ``benchmarks/e2e`` sets it and ``job_fingerprint`` hashes every field;
    #: the benchmark-only PR that retires the ``*.tuple.wall_s`` names drops it.
    batch: bool = False

    def __post_init__(self) -> None:
        if self.num_reducers < 1:
            raise ValueError("num_reducers must be >= 1")
        if self.merge_factor < 2:
            raise ValueError("merge_factor must be >= 2")
        if self.map_buffer_bytes <= 0 or self.reduce_buffer_bytes <= 0:
            raise ValueError("buffer sizes must be positive")


@dataclass(slots=True)
class MapReduceJob:
    """A complete analytical job: functions plus configuration.

    ``sort_comparable_keys`` must be True for the sort-merge baseline (its
    group-by orders keys); the hash engines only require hashable keys.
    """

    name: str
    map_fn: MapFn
    reduce_fn: ReduceFn
    combine_fn: CombineFn | None = None
    config: JobConfig = field(default_factory=JobConfig)
    input_path: str = ""
    output_path: str = ""
    map_slice: MapSliceFn | None = None

    def __post_init__(self) -> None:
        if not callable(self.map_fn) or not callable(self.reduce_fn):
            raise TypeError("map_fn and reduce_fn must be callable")
        if self.combine_fn is not None and not callable(self.combine_fn):
            raise TypeError("combine_fn must be callable or None")
        if self.map_slice is not None and not callable(self.map_slice):
            raise TypeError("map_slice must be callable or None")
        if not self.name:
            raise ValueError("job must have a name")

    @property
    def has_combiner(self) -> bool:
        return self.combine_fn is not None

    def with_config(self, **overrides: Any) -> "MapReduceJob":
        """Return a copy of the job with config fields replaced."""
        known = {f.name for f in fields(self.config)}
        for key in overrides:
            if key not in known:
                raise AttributeError(f"JobConfig has no field {key!r}")
        return replace(self, config=replace(self.config, **overrides))
