"""Per-user click counting.

The second counting variant in the paper: "A similar task counts the
number of clicks that each user has made."  Its map function is even
lighter than sessionization's — it "simply emits pairs in the form of
(user id, 1)" — which is why sorting takes up to 48% of map-phase CPU for
this workload in Table II: there is almost no map work to hide behind.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterable

from repro.core.engine import OnePassConfig, OnePassJob
from repro.mapreduce.api import JobConfig, MapReduceJob
from repro.workloads.counting import counting_job, counting_onepass_job, reference_counts

__all__ = [
    "user_of_click",
    "per_user_count_job",
    "per_user_count_onepass_job",
    "reference_user_counts",
]


#: Key extractor: the clicking user (an ``itemgetter``: no Python call per record).
user_of_click = itemgetter(1)


def per_user_count_job(
    input_path: str,
    output_path: str,
    *,
    config: JobConfig | None = None,
    with_combiner: bool = True,
) -> MapReduceJob:
    return counting_job(
        "per-user-count",
        user_of_click,
        input_path,
        output_path,
        config=config,
        with_combiner=with_combiner,
    )


def per_user_count_onepass_job(
    input_path: str,
    output_path: str,
    *,
    config: OnePassConfig | None = None,
) -> OnePassJob:
    return counting_onepass_job(
        "per-user-count-onepass",
        user_of_click,
        input_path,
        output_path,
        config=config,
    )


def reference_user_counts(clicks: Iterable[tuple[float, int, str]]) -> dict[int, int]:
    return reference_counts(clicks, user_of_click)
