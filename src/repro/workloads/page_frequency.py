"""Page-frequency counting: ``SELECT COUNT(*) FROM visits GROUP BY url``.

The paper's running example (§II) and one of its four benchmark workloads.
Keys are URLs; the combiner collapses the map output to one partial count
per URL per map task, which is why Table I shows an intermediate/input
ratio of only 0.4% for this workload.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterable

from repro.core.engine import OnePassConfig, OnePassJob
from repro.mapreduce.api import JobConfig, MapReduceJob
from repro.workloads.counting import counting_job, counting_onepass_job, reference_counts

__all__ = [
    "url_of_click",
    "page_frequency_job",
    "page_frequency_onepass_job",
    "reference_page_counts",
]


#: Key extractor: the visited URL (an ``itemgetter``: no Python call per record).
url_of_click = itemgetter(2)


def page_frequency_job(
    input_path: str,
    output_path: str,
    *,
    config: JobConfig | None = None,
    with_combiner: bool = True,
) -> MapReduceJob:
    return counting_job(
        "page-frequency",
        url_of_click,
        input_path,
        output_path,
        config=config,
        with_combiner=with_combiner,
    )


def page_frequency_onepass_job(
    input_path: str,
    output_path: str,
    *,
    config: OnePassConfig | None = None,
) -> OnePassJob:
    return counting_onepass_job(
        "page-frequency-onepass",
        url_of_click,
        input_path,
        output_path,
        config=config,
    )


def reference_page_counts(clicks: Iterable[tuple[float, int, str]]) -> dict[str, int]:
    return reference_counts(clicks, url_of_click)
