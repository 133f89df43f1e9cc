"""Inverted-index construction over the document collection.

"The map function extracts (word, (doc id, position)) pairs and the reduce
function builds a list of document ids and positions for each word."  The
intermediate data is smaller than the input text (Table I: ~70%) but still
substantial, and no combiner shrinks it meaningfully — posting lists only
concatenate — so the sort-merge baseline pays a full merge phase (Fig. 3).

Output records: ``(word, ((doc_id, position), ...))`` with postings sorted.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator

from repro.core.aggregates import COLLECT
from repro.core.engine import OnePassConfig, OnePassJob
from repro.mapreduce.api import JobConfig, MapReduceJob

__all__ = [
    "index_map",
    "index_map_slice",
    "index_reduce",
    "inverted_index_job",
    "inverted_index_onepass_job",
    "reference_index",
]

Posting = tuple[int, int]


def index_map(doc: tuple[int, str]) -> Iterator[tuple[str, Posting]]:
    """Tokenise one document into ``(word, (doc_id, position))`` pairs.

    Only identifier-like tokens are indexed; markup/punctuation tokens
    (``<p>``, ``&nbsp;``, numbers with punctuation...) contribute bytes to
    the input but no postings — as HTML boilerplate does in a web crawl.
    Positions count every token, indexed or not.
    """
    doc_id, text = doc
    for position, word in enumerate(text.split()):
        if word.isidentifier():
            yield (word, (doc_id, position))


def index_map_slice(docs: list[tuple[int, str]]) -> tuple[list[Any], list[int]]:
    """:func:`index_map` over a slice of documents: one comprehension each."""
    pairs: list[tuple[str, Posting]] = []
    ends: list[int] = []
    for doc_id, text in docs:
        pairs += [(w, (doc_id, i)) for i, w in enumerate(text.split()) if w.isidentifier()]
        ends.append(len(pairs))
    return pairs, ends


def index_reduce(word: str, postings: Iterator[Posting]) -> Iterator[tuple[str, tuple[Posting, ...]]]:
    """Build the sorted posting list for one word."""
    yield (word, tuple(sorted(postings)))


def inverted_index_job(
    input_path: str,
    output_path: str,
    *,
    config: JobConfig | None = None,
) -> MapReduceJob:
    return MapReduceJob(
        name="inverted-index",
        map_fn=index_map,
        map_slice=index_map_slice,
        reduce_fn=index_reduce,
        combine_fn=None,
        config=config or JobConfig(),
        input_path=input_path,
        output_path=output_path,
    )


def inverted_index_onepass_job(
    input_path: str,
    output_path: str,
    *,
    config: OnePassConfig | None = None,
) -> OnePassJob:
    """One-pass form: collect postings per word via hash grouping."""
    cfg = config or OnePassConfig(mode="hybrid", map_side_combine=False)
    return OnePassJob(
        name="inverted-index-onepass",
        map_fn=index_map,
        map_slice=index_map_slice,
        aggregator=COLLECT,
        finalize=index_reduce,  # a word's postings, sorted, as the reduce emits them
        config=cfg,
        input_path=input_path,
        output_path=output_path,
    )


def reference_index(
    docs: Iterable[tuple[int, str]]
) -> dict[str, tuple[Posting, ...]]:
    """Ground-truth inverted index, computed directly."""
    index: dict[str, list[Posting]] = {}
    for doc in docs:
        for word, posting in index_map(doc):
            index.setdefault(word, []).append(posting)
    return {word: tuple(sorted(p)) for word, p in index.items()}
