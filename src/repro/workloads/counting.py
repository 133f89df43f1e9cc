"""Generic count-by-key job builders shared by the counting workloads.

Page-frequency counting and per-user click counting are the same program
with different key extractors (the paper introduces them together as
variants of word counting).  The map emits ``(key, 1)``; the combiner and
reduce sum partial counts — the canonical commutative/associative algebra.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator

from repro.core.aggregates import SUM
from repro.core.engine import OnePassConfig, OnePassJob
from repro.mapreduce.api import JobConfig, MapReduceJob, MapSliceFn, SliceMapper

__all__ = ["count_map_fn", "count_map_slice", "sum_combine", "sum_reduce", "counting_job", "counting_onepass_job", "reference_counts"]


def count_map_fn(key_of: Callable[[Any], Any]) -> Callable[[Any], Iterator[tuple[Any, int]]]:
    """Map function emitting ``(key_of(record), 1)``."""

    def map_fn(record: Any) -> Iterator[tuple[Any, int]]:
        yield (key_of(record), 1)

    return map_fn


def count_map_slice(key_of: Callable[[Any], Any]) -> MapSliceFn:
    """:func:`count_map_fn` over a slice: one ``zip`` builds its pairs."""

    def map_slice(records: list[Any]) -> tuple[list[tuple[Any, int]], range]:
        n = len(records)
        return list(zip(map(key_of, records), [1] * n)), range(1, n + 1)

    return map_slice


def sum_combine(key: Any, values: Iterator[int]) -> Iterator[tuple[Any, int]]:
    """Combiner: emit one partial sum per key."""
    yield (key, sum(values))


def sum_reduce(key: Any, values: Iterator[int]) -> Iterator[tuple[Any, int]]:
    """Reduce: total count per key."""
    yield (key, sum(values))


def counting_job(
    name: str,
    key_of: Callable[[Any], Any],
    input_path: str,
    output_path: str,
    *,
    config: JobConfig | None = None,
    with_combiner: bool = True,
) -> MapReduceJob:
    """Sort-merge counting job; the combiner is what keeps Table I's
    intermediate/input ratio under 1% for these workloads."""
    return MapReduceJob(
        name=name,
        map_fn=SliceMapper(count_map_fn(key_of), count_map_slice(key_of)),
        reduce_fn=sum_reduce,
        combine_fn=sum_combine if with_combiner else None,
        config=config or JobConfig(),
        input_path=input_path,
        output_path=output_path,
    )


def counting_onepass_job(
    name: str,
    key_of: Callable[[Any], Any],
    input_path: str,
    output_path: str,
    *,
    config: OnePassConfig | None = None,
) -> OnePassJob:
    """One-pass counting: SUM states (each incoming value may be a partial
    sum pushed by the map-side combiner)."""
    return OnePassJob(
        name=name,
        map_fn=SliceMapper(count_map_fn(key_of), count_map_slice(key_of)),
        aggregator=SUM,
        config=config or OnePassConfig(),
        input_path=input_path,
        output_path=output_path,
    )


def reference_counts(
    records: Iterable[Any], key_of: Callable[[Any], Any]
) -> dict[Any, int]:
    """Ground-truth counts, computed directly."""
    counts: dict[Any, int] = {}
    for record in records:
        key = key_of(record)
        counts[key] = counts.get(key, 0) + 1
    return counts
