"""The four benchmark workloads: dataset, jobs, configs and reference answer.

Each workload is one of the paper's benchmark jobs at a fixed shape chosen
to load a different set of layers (see ``README.md`` for the layer ->
end-to-end interaction table).  The shapes are the ones ISSUE 12 fixed,
scaled down *uniformly* by :data:`SCALE`: the driver contract allows about
35 s per run (92 runs in 3420 s), a quarter of the 60-100 s a full-size
workload takes on two cores.  Record counts, key-space sizes and every
byte budget (HDFS block, map/reduce buffers, hash memory, hot-set
capacity) shrink by the same factor, so the *structure* of a run — number
of map tasks, spills per task, merge passes, share of keys that fit in
memory — is the full-size one; only the wall time is smaller.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Callable

from repro.core.engine import OnePassConfig, OnePassJob
from repro.mapreduce.api import JobConfig, MapReduceJob
from repro.workloads.clickstream import ClickStreamConfig, generate_clicks
from repro.workloads.documents import DocumentConfig, generate_documents
from repro.workloads.inverted_index import (
    index_map,
    inverted_index_job,
    inverted_index_onepass_job,
    reference_index,
)
from repro.workloads.page_frequency import (
    page_frequency_job,
    page_frequency_onepass_job,
    reference_page_counts,
)
from repro.workloads.per_user_count import (
    per_user_count_job,
    per_user_count_onepass_job,
    reference_user_counts,
)
from repro.workloads.sessionization import (
    reference_sessions,
    sessionization_job,
    sessionization_onepass_job,
)

__all__ = [
    "SCALE",
    "BLOCK_SIZE",
    "RECORDS_PER_CHUNK",
    "NUM_NODES",
    "Workload",
    "WORKLOADS",
    "by_name",
]

#: Uniform shrink factor applied to the ISSUE 12 shapes (see module docstring).
SCALE = 0.25

NUM_NODES = 4
NUM_REDUCERS = 4
SESSION_GAP = 5.0


def _n(full_size: int) -> int:
    return max(1, int(full_size * SCALE))


KIB = 1024
MIB = 1024 * KIB

#: HDFS block size of every cell's cluster (256 KiB at full size).
BLOCK_SIZE = _n(256 * KIB)
#: ``write_records`` closes a block only every so many records (256 at full
#: size); scaled too, or ``invindex`` would shrink from eight map tasks to two.
RECORDS_PER_CHUNK = _n(256)


@dataclass(frozen=True, slots=True)
class Workload:
    """One benchmark workload.

    ``mr_job(batch)`` / ``onepass_job(batch)`` build the job for the
    sort-merge engines and the one-pass engine on paths ``in`` -> ``out``;
    ``reference(records)`` is the workload's ``reference_*`` answer as a
    sorted list of output records.
    """

    name: str
    why: str
    dataset: Any  # ClickStreamConfig | DocumentConfig with seed 0
    job_config: JobConfig
    onepass_config: OnePassConfig
    _mr_job: Callable[[JobConfig], MapReduceJob]
    _onepass_job: Callable[[OnePassConfig], OnePassJob]
    _reference: Callable[[list[Any]], list[Any]]

    def records(self, seed: int) -> list[Any]:
        """The generated input; the same ``seed`` gives the same records."""
        cfg = _with_seed(self.dataset, seed)
        if isinstance(cfg, ClickStreamConfig):
            return list(generate_clicks(cfg))
        return _documents(cfg)

    def mr_job(self, batch: bool) -> MapReduceJob:
        return self._mr_job(_replace(self.job_config, batch=batch))

    def onepass_job(self, batch: bool) -> OnePassJob:
        return self._onepass_job(_replace(self.onepass_config, batch=batch))

    def reference(self, records: list[Any]) -> list[Any]:
        return self._reference(records)

    def describe(self) -> dict[str, Any]:
        """The exact shapes and configs, for the run manifest."""
        return {
            "why": self.why,
            "scale": SCALE,
            "dataset": asdict(self.dataset) | {"seed": "<--seed>"},
            "job_config": asdict(self.job_config),
            "onepass_config": asdict(self.onepass_config),
            "cluster": {
                "num_nodes": NUM_NODES,
                "block_size": BLOCK_SIZE,
                "records_per_chunk": RECORDS_PER_CHUNK,
            },
        }


def _documents(cfg: DocumentConfig) -> list[Any]:
    """Documents up to ``num_docs * mean_doc_words`` indexable words in total.

    Document lengths are geometric, so a fixed *number* of documents holds a
    word count that swings several per cent from seed to seed — and with it
    every wall time of the workload.  Fixing the total instead keeps the map
    output the same size on every seed (to within one document).
    """
    budget = cfg.num_docs * cfg.mean_doc_words
    surplus = _replace(cfg, num_docs=cfg.num_docs + cfg.num_docs // 3)
    docs: list[Any] = []
    words = 0
    for doc in generate_documents(surplus):
        docs.append(doc)
        words += sum(1 for _ in index_map(doc))
        if words >= budget:
            return docs
    raise RuntimeError(f"{len(docs)} documents hold only {words} of {budget} words")


def _with_seed(cfg: Any, seed: int) -> Any:
    return type(cfg)(**(asdict(cfg) | {"seed": seed}))


def _replace(cfg: Any, **fields: Any) -> Any:
    return type(cfg)(**(asdict(cfg) | fields))


def _sorted_items(reference: Callable[[list[Any]], dict[Any, Any]]) -> Callable[[list[Any]], list[Any]]:
    return lambda records: sorted(reference(records).items())


WORKLOADS: tuple[Workload, ...] = (
    Workload(
        name="sessionize",
        why=(
            "group-by dominated: every click is sorted, spilled, shuffled and merged "
            "(or hash-grouped and spilled), so sort/spill/merge/hybrid-hash/commit all work"
        ),
        dataset=ClickStreamConfig(
            num_clicks=_n(150_000), num_users=_n(15_000), num_urls=2_000, user_skew=1.1, seed=0
        ),
        job_config=JobConfig(
            num_reducers=NUM_REDUCERS,
            map_buffer_bytes=_n(1 * MIB),
            reduce_buffer_bytes=_n(1 * MIB),
            merge_factor=4,
        ),
        onepass_config=OnePassConfig(
            mode="hybrid",
            map_side_combine=False,
            num_reducers=NUM_REDUCERS,
            reduce_memory_bytes=_n(2 * MIB),
        ),
        _mr_job=lambda cfg: sessionization_job("in", "out", gap=SESSION_GAP, config=cfg),
        _onepass_job=lambda cfg: sessionization_onepass_job(
            "in", "out", gap=SESSION_GAP, config=cfg
        ),
        _reference=lambda records: reference_sessions(records, gap=SESSION_GAP),
    ),
    Workload(
        name="pagefreq",
        why=(
            "map dominated: decode, map fn, combiner and in-memory hash update do the work; "
            "merge, spill, reduce and commit do almost none (2000 output records)"
        ),
        dataset=ClickStreamConfig(num_clicks=_n(400_000), num_users=5_000, num_urls=2_000, seed=0),
        job_config=JobConfig(num_reducers=NUM_REDUCERS),
        onepass_config=OnePassConfig(
            mode="incremental", map_side_combine=True, num_reducers=NUM_REDUCERS
        ),
        _mr_job=lambda cfg: page_frequency_job("in", "out", config=cfg),
        _onepass_job=lambda cfg: page_frequency_onepass_job("in", "out", config=cfg),
        _reference=_sorted_items(reference_page_counts),
    ),
    Workload(
        name="userskew",
        why=(
            "the merge and hash layers under memory pressure and key skew: multi-pass merge, "
            "per-record hot-set admission/eviction and cold spills beside in-memory updates"
        ),
        dataset=ClickStreamConfig(
            num_clicks=_n(250_000), num_users=_n(60_000), num_urls=2_000, user_skew=1.5, seed=0
        ),
        job_config=JobConfig(
            num_reducers=NUM_REDUCERS,
            map_buffer_bytes=_n(1 * MIB),
            reduce_buffer_bytes=_n(256 * KIB),
            merge_factor=4,
        ),
        onepass_config=OnePassConfig(
            mode="hotset",
            hotset_capacity=_n(1_500),
            map_side_combine=False,
            reduce_memory_bytes=_n(256 * KIB),
            num_reducers=NUM_REDUCERS,
        ),
        _mr_job=lambda cfg: per_user_count_job("in", "out", config=cfg, with_combiner=False),
        _onepass_job=lambda cfg: per_user_count_onepass_job("in", "out", config=cfg),
        _reference=_sorted_items(reference_user_counts),
    ),
    Workload(
        name="invindex",
        why=(
            "few large input records, string keys, tuple values, wide output records: value "
            "framing, string-key sort and the HDFS commit dominate; input decode is ~0"
        ),
        dataset=DocumentConfig(
            num_docs=_n(2_000),
            vocab_size=_n(20_000),
            mean_doc_words=120,
            markup_per_word=2.0,
            seed=0,
        ),
        job_config=JobConfig(
            num_reducers=NUM_REDUCERS,
            map_buffer_bytes=_n(1 * MIB),
            reduce_buffer_bytes=_n(1 * MIB),
            merge_factor=4,
        ),
        onepass_config=OnePassConfig(
            mode="hybrid",
            map_side_combine=False,
            num_reducers=NUM_REDUCERS,
            reduce_memory_bytes=_n(4 * MIB),
        ),
        _mr_job=lambda cfg: inverted_index_job("in", "out", config=cfg),
        _onepass_job=lambda cfg: inverted_index_onepass_job("in", "out", config=cfg),
        _reference=_sorted_items(reference_index),
    ),
)


def by_name(name: str) -> Workload:
    for workload in WORKLOADS:
        if workload.name == name:
            return workload
    raise KeyError(f"unknown workload {name!r}; choose from {[w.name for w in WORKLOADS]}")
