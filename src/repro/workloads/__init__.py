"""Workload generators and the paper's four benchmark jobs.

Click-stream analysis (sessionization, page frequency, per-user count)
and web-document analysis (inverted index), each available in sort-merge
(:class:`~repro.mapreduce.api.MapReduceJob`) and one-pass
(:class:`~repro.core.engine.OnePassJob`) form, plus reference
implementations for correctness checks.  :func:`paper_jobs` is the one
registry of the four by name and :func:`paper_cell` the one way to stand a
(workload, engine) cell up, shared by the CLI and the sanitizer matrix.
"""

from typing import Any, Callable

from repro.workloads.clickstream import (
    ClickStreamConfig,
    click_text_codec,
    generate_clicks,
    url_of,
)
from repro.workloads.counting import (
    count_map_fn,
    counting_job,
    counting_onepass_job,
    reference_counts,
    sum_combine,
    sum_reduce,
)
from repro.workloads.documents import (
    DocumentConfig,
    document_text_codec,
    generate_documents,
    word_of,
)
from repro.workloads.inverted_index import (
    index_map,
    index_reduce,
    inverted_index_job,
    inverted_index_onepass_job,
    reference_index,
)
from repro.workloads.page_frequency import (
    page_frequency_job,
    page_frequency_onepass_job,
    reference_page_counts,
    url_of_click,
)
from repro.workloads.per_user_count import (
    per_user_count_job,
    per_user_count_onepass_job,
    reference_user_counts,
    user_of_click,
)
from repro.workloads.sessionization import (
    reference_sessions,
    session_map,
    session_reduce,
    sessionization_job,
    sessionization_onepass_job,
)
from repro.workloads.zipf import ZipfSampler, zipf_pmf

WORKLOADS = ("sessionization", "page-frequency", "per-user-count", "inverted-index")


def _click_records(n: int) -> list:
    return list(
        generate_clicks(
            ClickStreamConfig(num_clicks=n, num_users=max(10, n // 20), num_urls=max(10, n // 50))
        )
    )


def _document_records(n: int) -> list:
    return list(
        generate_documents(
            DocumentConfig(num_docs=max(1, n // 60), vocab_size=5_000, markup_per_word=2.0)
        )
    )


def paper_jobs(
    workload: str,
) -> tuple[Callable[[int], list], Callable[..., Any], Callable[..., Any]]:
    """``(records_fn, sortmerge_job_fn, onepass_job_fn)`` for a name in :data:`WORKLOADS`.

    ``records_fn(n)`` generates an input of about ``n`` records; each job
    function takes ``(input_path, output_path)``.
    """
    if workload == "sessionization":
        return (
            _click_records,
            lambda i, o: sessionization_job(i, o, gap=5.0),
            lambda i, o: sessionization_onepass_job(i, o, gap=5.0),
        )
    if workload == "page-frequency":
        return _click_records, page_frequency_job, page_frequency_onepass_job
    if workload == "per-user-count":
        return _click_records, per_user_count_job, per_user_count_onepass_job
    if workload == "inverted-index":
        return _document_records, inverted_index_job, inverted_index_onepass_job
    raise ValueError(f"unknown workload {workload!r}")


def paper_cell(workload: str, engine: str, records: int, nodes: int) -> tuple[Any, type, Any]:
    """One laptop-scale cell of the paper's workload x engine grid.

    Returns ``(cluster, engine_cls, job)``: a fresh ``nodes``-node cluster
    with about ``records`` generated records at ``"in"``, the engine class
    named ``"hadoop"``, ``"hop"`` or ``"onepass"``, and the workload's job
    in that engine's form writing ``"out"``.  The caller constructs the
    engine, so executor, tracer, journal and plan stay at the call site.
    """
    from repro.core.engine import OnePassEngine
    from repro.mapreduce.hop import HOPEngine
    from repro.mapreduce.runtime import HadoopEngine, LocalCluster

    records_fn, sm_job, op_job = paper_jobs(workload)
    cluster = LocalCluster(num_nodes=nodes, block_size=256 * 1024)
    cluster.hdfs.write_records("in", records_fn(records))
    engine_cls = {"hadoop": HadoopEngine, "hop": HOPEngine, "onepass": OnePassEngine}[engine]
    job = (op_job if engine == "onepass" else sm_job)("in", "out")
    return cluster, engine_cls, job


__all__ = [
    "WORKLOADS",
    "paper_jobs",
    "paper_cell",
    "ZipfSampler",
    "zipf_pmf",
    "ClickStreamConfig",
    "generate_clicks",
    "click_text_codec",
    "url_of",
    "DocumentConfig",
    "generate_documents",
    "document_text_codec",
    "word_of",
    "count_map_fn",
    "sum_combine",
    "sum_reduce",
    "counting_job",
    "counting_onepass_job",
    "reference_counts",
    "sessionization_job",
    "sessionization_onepass_job",
    "session_map",
    "session_reduce",
    "reference_sessions",
    "page_frequency_job",
    "page_frequency_onepass_job",
    "reference_page_counts",
    "url_of_click",
    "per_user_count_job",
    "per_user_count_onepass_job",
    "reference_user_counts",
    "user_of_click",
    "inverted_index_job",
    "inverted_index_onepass_job",
    "index_map",
    "index_reduce",
    "reference_index",
]
