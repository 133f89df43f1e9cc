"""Every workload job's slice mapper against its per-record map function.

A job's ``map_slice(records)`` must return what the per-record loop
(``sortmerge.per_record(job.map_fn)``) returns for the same records: the
same pairs in the same order, as a list, and the same end offset per
record.  Checked for every job builder in :mod:`repro.workloads`, under
any cut of the input into slices, empty and one-record slices included.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mapreduce.sortmerge import per_record
from repro.workloads.inverted_index import inverted_index_job, inverted_index_onepass_job
from repro.workloads.page_frequency import page_frequency_job, page_frequency_onepass_job
from repro.workloads.per_user_count import per_user_count_job, per_user_count_onepass_job
from repro.workloads.sessionization import (
    session_count_job,
    session_count_onepass_job,
    session_log_job,
    session_log_onepass_job,
    sessionization_job,
    sessionization_onepass_job,
)

clicks = st.tuples(
    st.floats(allow_nan=False), st.integers(-5, 50), st.sampled_from(["/a", "/b", "", "/é"])
)
sessions = st.tuples(
    st.integers(-5, 50),
    st.floats(allow_nan=False),
    st.lists(st.text(max_size=3), max_size=3).map(tuple),
)
#: Indexable words, markup the tokenizer skips, and odd whitespace: a
#: document may have no indexable word, or no token at all.
tokens = st.sampled_from(
    ["w000001", "w2", "_x", "abc", "<p>", "&nbsp;", "12;", "9z", "é", "", " ", "\t"]
)
documents = st.tuples(st.integers(0, 10**6), st.lists(tokens, max_size=12).map(" ".join))

JOBS = {
    "page-frequency": (clicks, page_frequency_job, page_frequency_onepass_job),
    "per-user-count": (clicks, per_user_count_job, per_user_count_onepass_job),
    "sessionization": (clicks, sessionization_job, sessionization_onepass_job),
    "session-log": (clicks, session_log_job, session_log_onepass_job),
    "session-count": (sessions, session_count_job, session_count_onepass_job),
    "inverted-index": (documents, inverted_index_job, inverted_index_onepass_job),
}
BUILDS = [(name, form) for name in JOBS for form in ("sortmerge", "onepass")]


def job_of(name, form):
    _, sortmerge_job, onepass_job = JOBS[name]
    return (sortmerge_job if form == "sortmerge" else onepass_job)("in", "out")


def cut(records, sizes):
    """``records`` cut into consecutive slices of ``sizes`` (a 0 is an empty
    slice), the rest as one last slice."""
    out, i = [], 0
    for size in sizes:
        out.append(records[i : i + size])
        i += size
        if i >= len(records):
            break
    return out + [records[i:]]


def same_as_per_record(job, records):
    pairs, ends = job.map_slice(records)
    expected_pairs, expected_ends = per_record(job.map_fn)(records)
    assert type(pairs) is list
    assert pairs == expected_pairs
    assert list(ends) == expected_ends
    return pairs


@pytest.mark.parametrize(("name", "form"), BUILDS)
def test_every_workload_job_has_a_slice_mapper(name, form):
    job = job_of(name, form)
    assert callable(job.map_slice) and job.map_slice is not job.map_fn


@pytest.mark.parametrize(("name", "form"), BUILDS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_slice_mapper_equals_the_per_record_loop(name, form, data):
    job = job_of(name, form)
    records = data.draw(st.lists(JOBS[name][0], max_size=40), label="records")
    sizes = data.draw(st.lists(st.integers(0, 7), max_size=12), label="sizes")
    whole = same_as_per_record(job, records)
    # Any cut into slices, each mapped alone, gives the whole input's pairs.
    assert [p for piece in cut(records, sizes) for p in same_as_per_record(job, piece)] == whole
    for record in records:
        same_as_per_record(job, [record])


@pytest.mark.parametrize(("name", "form"), BUILDS)
def test_an_empty_slice_maps_to_nothing(name, form):
    pairs, ends = job_of(name, form).map_slice([])
    assert pairs == [] and list(ends) == []


def test_documents_without_an_indexable_word_still_end_a_record():
    job = inverted_index_job("in", "out")
    docs = [(1, "<p> 12; </p>"), (2, ""), (3, "a <p> b"), (4, "&nbsp;")]
    pairs, ends = job.map_slice(docs)
    assert pairs == [("a", (3, 0)), ("b", (3, 2))]
    assert list(ends) == [0, 0, 2, 2]
