"""Audit of the span/event name registries, and of the analyzer's metrics
table, against real engine runs.

``repro/obs/names.py`` is a closed vocabulary, and this audit holds it
from both sides: a battery of engine scenarios — the four workloads, fault
and checkpoint recovery, speculation, the crashpoint chaos sweep, and a
chained cached run — must between them emit **every** registered name, and
every name they emit must be registered.  A name that no scenario emits is
dead registry weight (or dead instrumentation); an emitted name missing
from the registry is a typo every downstream view would drop.  (The static
twin, REP104, was retired by the mutant kill table in
``docs/STATIC_ANALYSIS.md``: this battery killed its mutant.)

Metrics have no registry: a distribution is a row of
``repro.obs.analyze.report.DERIVED_METRICS`` naming a span or event and the
arg to read.  The same battery audits that table — every row must find its
records, and the arg it names must be on them.
"""

import pytest

from repro.core.engine import OnePassConfig, OnePassEngine
from repro.mapreduce.api import JobConfig
from repro.mapreduce.chain import ChainStage, run_chain
from repro.mapreduce.faults import FaultPlan
from repro.mapreduce.hop import HOPConfig, HOPEngine
from repro.mapreduce.recovery import SpeculationPolicy
from repro.mapreduce.runtime import HadoopEngine, LocalCluster
from repro.obs.analyze.report import DERIVED_METRICS
from repro.obs.names import EVENT_NAMES, SPAN_NAMES
from repro.obs.tracer import Tracer
from repro.testing import ChaosTarget, run_crashpoint_sweep
from repro.workloads import (
    inverted_index_job,
    page_frequency_job,
    per_user_count_job,
    per_user_count_onepass_job,
    sessionization_job,
)
from repro.workloads.clickstream import ClickStreamConfig, generate_clicks
from repro.workloads.counting import counting_onepass_job
from repro.workloads.documents import DocumentConfig, generate_documents
from repro.workloads.sessionization import session_log_onepass_job, user_of_session

CLICKS = list(
    generate_clicks(
        ClickStreamConfig(
            num_clicks=3_000, num_users=150, num_urls=80, user_skew=1.1, seed=11
        )
    )
)
DOCS = list(
    generate_documents(DocumentConfig(num_docs=60, vocab_size=500, seed=5))
)


def _cluster(records, **kwargs):
    cluster = LocalCluster(**{"num_nodes": 3, "block_size": 32 * 1024, **kwargs})
    cluster.hdfs.write_records("in", records)
    return cluster


# -- the scenario battery ------------------------------------------------------
# Each scenario runs one engine path under a Tracer and returns it.  Together
# they must cover the whole registry; the comment on each names the registry
# entries only that scenario provides.


def _scenario_hadoop_matrix():
    """map/sort/combine/spill/merge/fetch/reduce + both phase envelopes,
    map.sort.records, shuffle.segment.bytes; small buffer forces >1 spill."""
    tracers = []
    small = JobConfig(map_buffer_bytes=16 * 1024)
    for records, job in (
        (CLICKS, page_frequency_job("in", "out", config=small)),
        (CLICKS, per_user_count_job("in", "out")),
        (CLICKS, sessionization_job("in", "out", gap=5.0)),
        (DOCS, inverted_index_job("in", "out")),
    ):
        tracer = Tracer()
        HadoopEngine(_cluster(records), tracer=tracer).run(job)
        tracers.append(tracer)
    return tracers


def _scenario_hop_snapshot():
    """snapshot span; push span + push.chunk.bytes from the pipelined path."""
    tracer = Tracer()
    HOPEngine(
        _cluster(CLICKS),
        tracer=tracer,
        hop_config=HOPConfig(snapshot_fractions=(0.5,)),
    ).run(per_user_count_job("in", "out"))
    return [tracer]


def _scenario_onepass_hash_spill():
    """hash.spill event and hash.resident.keys gauge: a memory-starved
    incremental hash overflows to the hybrid grouper mid-stream."""
    tracer = Tracer()
    cfg = OnePassConfig(
        mode="incremental", reduce_memory_bytes=4096, map_side_combine=False
    )
    OnePassEngine(_cluster(CLICKS), tracer=tracer).run(
        per_user_count_onepass_job("in", "out", config=cfg)
    )
    return [tracer]


def _scenario_hadoop_node_crash():
    """node.crash + task.killed from a seeded random plan."""
    tracer = Tracer()
    cluster = _cluster(CLICKS, num_nodes=4, replication=2)
    plan = FaultPlan.random(
        seed=1,
        num_map_tasks=len(cluster.hdfs.input_splits("in")),
        num_reducers=2,
        nodes=cluster.nodes,
        map_failure_rate=0.3,
        crash_after=2,
    )
    HadoopEngine(cluster, fault_plan=plan, tracer=tracer).run(
        per_user_count_job("in", "out")
    )
    return [tracer]


def _scenario_fetch_failure():
    """shuffle.fetch_failed + map.rerun: one segment burns exactly the
    fetch retry budget, so the reducer declares the map output lost."""
    tracer = Tracer()
    plan = FaultPlan(shuffle_failures={(0, 0): 4})  # == FetchRetryPolicy.max_retries
    HadoopEngine(_cluster(CLICKS), fault_plan=plan, tracer=tracer).run(
        per_user_count_job("in", "out")
    )
    return [tracer]


def _scenario_onepass_checkpoint():
    """checkpoint.saved / checkpoint.restored / replay span: both reducers
    die once and restore from their latest durable checkpoint."""
    tracer = Tracer()
    OnePassEngine(
        _cluster(CLICKS),
        fault_plan=FaultPlan(reduce_failures={0: 1, 1: 1}),
        checkpoint_interval=3,
        tracer=tracer,
    ).run(per_user_count_onepass_job("in", "out"))
    return [tracer]


def _scenario_speculation():
    """speculative.launched/win/lost: an 8x straggler loses to its backup;
    a 1.6x straggler finishes before a backup that started one
    mean-duration late."""
    tracers = []
    for slowdown in (8.0, 1.6):
        tracer = Tracer()
        HadoopEngine(
            _cluster(CLICKS),
            fault_plan=FaultPlan(slow_nodes={"node01": slowdown}),
            speculation=SpeculationPolicy(min_completed=1),
            tracer=tracer,
        ).run(per_user_count_job("in", "out"))
        tracers.append(tracer)
    return tracers


def _scenario_chaos_sweep(tmp_path):
    """journal.commit/resume/truncated, journal-replay, chaos.crashpoint:
    an exhaustive crashpoint sweep visits every journal-append site in
    both crash modes, resuming (and re-replaying) each time."""
    records = list(
        generate_clicks(ClickStreamConfig(num_clicks=600, num_users=40, num_urls=30, seed=7))
    )
    tracer = Tracer()
    target = ChaosTarget(
        name="hadoop",
        make_cluster=lambda: _cluster(records),
        make_engine=lambda cluster, journal: HadoopEngine(
            cluster, journal=journal, tracer=tracer
        ),
        make_job=lambda: per_user_count_job("in", "out"),
    )
    run_crashpoint_sweep(target, str(tmp_path), mode="exhaustive", tracer=tracer)
    return [tracer]


def _scenario_chain_cache():
    """cache.register/cache.spill events, batch.encode span and the
    cache.resident.bytes gauge: a 4 KiB cache spills under pressure."""
    tracer = Tracer()
    cluster = LocalCluster(num_nodes=3, block_size=16 * 1024)
    cluster.hdfs.write_records("in", CLICKS[:2000])
    stages = [
        ChainStage(session_log_onepass_job("in", "mid", gap=5.0)),
        ChainStage(counting_onepass_job("chain-count", user_of_session, "mid", "out")),
    ]
    run_chain(cluster, stages, cache_bytes=4096, tracer=tracer)
    return [tracer]


@pytest.fixture(scope="module")
def emitted(tmp_path_factory):
    """name -> set of scenario labels that emitted it, per kind; plus, per
    metrics-table row, the records it names (``selected``) and those of
    them that lack every one of its args (``bare``)."""
    scenarios = {
        "hadoop-matrix": _scenario_hadoop_matrix,
        "hop-snapshot": _scenario_hop_snapshot,
        "onepass-hash-spill": _scenario_onepass_hash_spill,
        "hadoop-node-crash": _scenario_hadoop_node_crash,
        "fetch-failure": _scenario_fetch_failure,
        "onepass-checkpoint": _scenario_onepass_checkpoint,
        "speculation": _scenario_speculation,
        "chaos-sweep": lambda: _scenario_chaos_sweep(
            tmp_path_factory.mktemp("chaos")
        ),
        "chain-cache": _scenario_chain_cache,
    }
    spans: dict[str, set[str]] = {}
    events: dict[str, set[str]] = {}
    selected = dict.fromkeys(DERIVED_METRICS, 0)
    bare = dict.fromkeys(DERIVED_METRICS, 0)
    for label, fn in scenarios.items():
        for tracer in fn():
            for span in tracer.spans:
                spans.setdefault(span.name, set()).add(label)
            for event in tracer.events:
                events.setdefault(event.name, set()).add(label)
            for metric, (_type, source, record, arg_names) in DERIVED_METRICS.items():
                for r in tracer.spans if source == "span" else tracer.events:
                    if r.name == record:
                        selected[metric] += 1
                        bare[metric] += not any(a in r.args for a in arg_names)
    return {"spans": spans, "events": events, "selected": selected, "bare": bare}


class TestRegistryCoverage:
    """Registered ⊆ emitted: a name nothing emits is dead and must go."""

    def test_every_span_name_emitted(self, emitted):
        dead = SPAN_NAMES - emitted["spans"].keys()
        assert not dead, f"registered span names never emitted: {sorted(dead)}"

    def test_every_event_name_emitted(self, emitted):
        dead = EVENT_NAMES - emitted["events"].keys()
        assert not dead, f"registered event names never emitted: {sorted(dead)}"

    def test_every_metric_name_emitted(self, emitted):
        """Every row of the analyzer's table finds a record to read."""
        dead = sorted(
            m for m in DERIVED_METRICS if emitted["selected"][m] == emitted["bare"][m]
        )
        assert not dead, f"metrics-table rows no span/event feeds: {dead}"


class TestEmissionDiscipline:
    """Emitted ⊆ registered: engines must not invent names on the fly."""

    def test_no_unregistered_span_names(self, emitted):
        rogue = emitted["spans"].keys() - SPAN_NAMES
        assert not rogue, f"unregistered span names emitted: {sorted(rogue)}"

    def test_no_unregistered_event_names(self, emitted):
        rogue = emitted["events"].keys() - EVENT_NAMES
        assert not rogue, f"unregistered event names emitted: {sorted(rogue)}"

    def test_no_unregistered_metric_names(self, emitted):
        """A row names a registered span/event, and the arg it reads is on
        every record of that name — bar the one level that only some
        ``reduce`` spans have (an incremental hash table to count)."""
        for metric, (_type, source, record, _args) in DERIVED_METRICS.items():
            assert record in (SPAN_NAMES if source == "span" else EVENT_NAMES), metric
        partial = {"hash.resident.keys"}
        bare = {m: n for m, n in emitted["bare"].items() if n and m not in partial}
        assert not bare, f"records a metrics-table row selects but cannot read: {bare}"
        assert 0 < emitted["bare"]["hash.resident.keys"] < emitted["selected"]["hash.resident.keys"]
