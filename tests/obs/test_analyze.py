"""Unit tests for the trace-derived performance analyzer.

Every analysis pass is exercised on hand-built spans with arithmetic
worked out by hand, so a regression in the DAG construction, interval
algebra or report assembly fails with exact numbers rather than a vague
shape mismatch.  A single small engine run at the end smoke-tests the
full ``analyze_tracer`` -> render pipeline against real traces.
"""

import json

import pytest

from repro.core.engine import OnePassEngine
from repro.mapreduce.hop import HOPEngine
from repro.mapreduce.journal import JobJournal
from repro.mapreduce.runtime import HadoopEngine, LocalCluster
from repro.obs.analyze import (
    JOURNAL_SCHEMA,
    SCHEMA,
    TraceModel,
    analyze_journal,
    analyze_model,
    analyze_tracer,
    attribute_regression,
    barrier_report,
    critical_path,
    delta_rows,
    derive_metrics,
    diff_reports,
    interval_union,
    load_trace,
    phase_ticks,
    render_delta_table,
    render_html,
    render_json,
    render_text,
    skew_report,
    union_length,
    validate_report,
)
from repro.obs.export import chrome_trace, to_jsonl, write_trace
from repro.obs.tracer import Span, TraceEvent, Tracer
from repro.workloads import paper_jobs, per_user_count_job
from repro.workloads.clickstream import ClickStreamConfig, generate_clicks


def span(name, cat, t0, t1, *, node="", task="", **args):
    return Span(name, cat, t0, t1, node=node, task=task, args=args)


# -- critical path -------------------------------------------------------------


class TestCriticalPath:
    def test_program_order_and_fetch_edge(self):
        """map -> sort (program order) -> reduce (map_task arg) chains."""
        spans = [
            span("map", "map", 0, 10, task="map:00000"),
            span("sort", "sort", 10, 14, task="map:00000"),
            span("reduce", "reduce", 20, 25, task="reduce:000", map_task=0),
            span("map", "map", 0, 4, task="map:00001"),  # short, off-path
        ]
        cp = critical_path(spans)
        assert cp["total_ticks"] == 19
        assert cp["makespan"] == 25
        assert cp["share"] == round(19 / 25, 4)
        assert cp["spans_on_path"] == 3
        assert [s["name"] for s in cp["chain"]] == ["map", "sort", "reduce"]
        assert cp["by_cat"] == {"map": 10, "reduce": 5, "sort": 4}

    def test_slack(self):
        """Off-path spans report how far they are from mattering."""
        spans = [
            span("map", "map", 0, 10, task="map:00000"),
            span("sort", "sort", 10, 14, task="map:00000"),
            span("reduce", "reduce", 20, 25, task="reduce:000", map_task=0),
            span("map", "map", 0, 4, task="map:00001"),
        ]
        slack = critical_path(spans)["slack"]
        # The three chained spans have zero slack; the 4-tick stray map
        # could grow by 19 - 4 = 15 ticks before tying the path.
        assert slack == {"zero": 3, "mean": round(15 / 4, 4), "max": 15}

    def test_push_partitions_edge(self):
        """A producer push span links to each fed partition's next span."""
        spans = [
            span("map", "map", 0, 4, task="map:00001"),
            span("push", "push", 4, 8, task="map:00001", partitions=[0, 1]),
            span("accept", "reduce", 9, 12, task="reduce:000"),
            span("accept", "reduce", 10, 11, task="reduce:001"),
        ]
        cp = critical_path(spans)
        assert cp["total_ticks"] == 4 + 4 + 3
        assert [s["task"] for s in cp["chain"]] == [
            "map:00001",
            "map:00001",
            "reduce:000",
        ]

    def test_phase_envelopes_excluded(self):
        spans = [
            span("map", "map", 0, 10, task="map:00000"),
            span("map-phase", "phase", 0, 500),
        ]
        cp = critical_path(spans)
        assert cp["total_ticks"] == 10
        assert cp["makespan"] == 10  # envelope does not stretch the axis

    def test_empty_and_phase_only(self):
        zeros = critical_path([])
        assert zeros["total_ticks"] == 0
        assert zeros["chain"] == []
        assert zeros["slack"] == {"zero": 0, "mean": 0.0, "max": 0}
        assert critical_path([span("p", "phase", 0, 9)]) == zeros

    def test_max_chain_truncates_listing_not_totals(self):
        spans = [
            span("s", "map", 10 * i, 10 * (i + 1), task="map:00000")
            for i in range(5)
        ]
        cp = critical_path(spans, max_chain=2)
        assert cp["total_ticks"] == 50
        assert cp["spans_on_path"] == 5
        assert len(cp["chain"]) == 2


# -- barriers & pipelining -----------------------------------------------------


class TestIntervalAlgebra:
    def test_union_merges_overlaps_and_touching(self):
        assert interval_union([(3, 8), (0, 5), (10, 12)]) == [(0, 8), (10, 12)]
        assert interval_union([(0, 5), (5, 7)]) == [(0, 7)]
        assert union_length([(3, 8), (0, 5), (10, 12)]) == 10


class TestBarrierReport:
    BLOCKING = [
        span("map", "map", 0, 10, task="map:00000"),
        span("map", "map", 10, 18, task="map:00001"),
        span("sort", "sort", 18, 20, task="map:00000"),
        span("reduce", "reduce", 24, 30, task="reduce:000"),
    ]

    def test_blocking_run_stalls_at_the_barrier(self):
        rep = barrier_report(self.BLOCKING)
        assert rep["map_window"] == [0, 20]  # sort rides the map task
        assert rep["reduce_window"] == [24, 30]
        assert rep["window_overlap_ticks"] == 0
        assert rep["pipelining_efficiency"] == 0.0
        assert rep["barrier_stall_ticks"] == 4
        assert rep["sort_merge_ticks"] == 2
        assert rep["work_ticks"] == 26
        assert rep["sort_merge_share"] == round(2 / 26, 4)

    def test_pipelined_run_overlaps_the_map_window(self):
        rep = barrier_report(
            [
                span("map", "map", 0, 10, task="map:00000"),
                span("accept", "reduce", 3, 5, task="reduce:000"),
                span("accept", "reduce", 12, 14, task="reduce:000"),
            ]
        )
        assert rep["map_window"] == [0, 10]
        assert rep["reduce_window"] == [3, 14]
        assert rep["window_overlap_ticks"] == 7
        assert rep["pipelined_reduce_ticks"] == 2  # only the [3,5] accept
        assert rep["pipelining_efficiency"] == 0.5
        assert rep["barrier_stall_ticks"] == 0
        assert rep["sort_merge_ticks"] == 0

    def test_empty(self):
        rep = barrier_report([])
        assert rep["map_window"] == [0, 0]
        assert rep["work_ticks"] == 0
        assert rep["pipelining_efficiency"] == 0.0


# -- skew ----------------------------------------------------------------------


class TestSkewReport:
    SPANS = [
        span("reduce", "reduce", 0, 30, node="n1", task="reduce:000", bytes=100),
        span("reduce", "reduce", 0, 10, node="n2", task="reduce:001", bytes=40),
        span("reduce", "reduce", 0, 8, node="n2", task="reduce:002"),
        span("map", "map", 0, 12, node="n1", task="map:00000"),
    ]
    EVENTS = [
        TraceEvent("speculative.launched", "recovery", 5, task="map:00001"),
        TraceEvent("speculative.launched", "recovery", 6, task="map:00002"),
        TraceEvent("speculative.win", "recovery", 9, task="map:00001"),
        TraceEvent("speculative.lost", "recovery", 9, task="map:00002"),
        TraceEvent("node.crash", "recovery", 2, node="n2"),
    ]

    def test_partition_attribution(self):
        rep = skew_report(self.SPANS)
        assert rep["partitions"] == {
            "reduce:000": {"ticks": 30, "bytes": 100},
            "reduce:001": {"ticks": 10, "bytes": 40},
            "reduce:002": {"ticks": 8, "bytes": 0},
        }
        # values (30, 10, 8): mean 16, population stddev sqrt(296/3)
        assert rep["partition_cov"] == 0.6208
        assert rep["partition_max_over_mean"] == round(30 / 16, 4)
        # straggler threshold is 1.5 * mean = 24; only reduce:000 exceeds it
        assert rep["stragglers"] == ["reduce:000"]

    def test_node_imbalance(self):
        rep = skew_report(self.SPANS)
        assert rep["nodes"] == {"n1": 42, "n2": 18}
        assert rep["node_imbalance"] == round(42 / 30, 4)

    def test_speculation_and_recovery_accounting(self):
        rep = skew_report(self.SPANS, self.EVENTS)
        assert rep["speculation"] == {
            "launched": 2,
            "wins": 1,
            "losses": 1,
            "winning_tasks": ["map:00001"],
        }
        assert rep["recovery_events"] == {
            "node.crash": 1,
            "speculative.launched": 2,
            "speculative.lost": 1,
            "speculative.win": 1,
        }

    def test_empty(self):
        rep = skew_report([])
        assert rep["partitions"] == {}
        assert rep["partition_cov"] == 0.0
        assert rep["stragglers"] == []
        assert rep["node_imbalance"] == 0.0
        assert rep["speculation"]["launched"] == 0


# -- diff / regression attribution ---------------------------------------------


class TestDiff:
    def test_phase_ticks_excludes_envelopes(self):
        assert phase_ticks(
            [
                span("map", "map", 0, 10),
                span("sort", "sort", 10, 14),
                span("sort", "sort", 14, 16),
                span("map-phase", "phase", 0, 99),
                span("anon", "", 16, 17),
            ]
        ) == {"map": 10, "other": 1, "sort": 6}

    def test_delta_rows_sorted_by_regression(self):
        rows = delta_rows({"sort": 10, "map": 5}, {"sort": 25, "map": 5, "spill": 3})
        assert [r["key"] for r in rows] == ["sort", "spill", "map"]
        assert rows[0] == {
            "key": "sort", "base": 10, "new": 25, "delta": 15, "ratio": 2.5,
        }
        assert rows[1]["ratio"] == 0.0  # new key: base is zero

    def test_attribute_regression(self):
        assert attribute_regression({"sort": 10}, {"sort": 30, "map": 2}) == "sort"
        assert attribute_regression({"sort": 10, "map": 5}, {"sort": 10, "map": 3}) is None
        assert attribute_regression({}, {}) is None

    def test_diff_reports_names_the_regressed_phase(self):
        base = {
            "job": "base", "makespan": 100,
            "phases": {"map": {"ticks": 50}, "sort": {"ticks": 10}},
            "critical_path": {"total_ticks": 80},
            "barriers": {"barrier_stall_ticks": 5, "sort_merge_ticks": 10},
        }
        new = {
            "job": "new", "makespan": 130,
            "phases": {"map": {"ticks": 50}, "sort": {"ticks": 38}},
            "critical_path": {"total_ticks": 95},
            "barriers": {"barrier_stall_ticks": 9, "sort_merge_ticks": 38},
        }
        diff = diff_reports(base, new)
        assert diff["schema"] == "repro.analyze.diff/v1"
        assert diff["base_job"] == "base" and diff["new_job"] == "new"
        assert diff["regressed_phase"] == "sort"
        assert diff["headlines"]["makespan"] == {"base": 100, "new": 130}
        assert diff["headlines"]["barrier_stall_ticks"] == {"base": 5, "new": 9}
        assert diff["phases"][0]["key"] == "sort"

    def test_render_delta_table(self):
        text = render_delta_table(
            delta_rows({"sort": 10}, {"sort": 25, "spill": 3})
        )
        assert "2.50x" in text  # grown phase, as a ratio
        assert "new" in text  # phase absent from the baseline
        assert "phase" in text and "delta" in text


# -- report assembly, rendering, validation ------------------------------------


def _model():
    return TraceModel(
        spans=[
            span("map", "map", 0, 10, node="n1", task="map:00000"),
            span("sort", "sort", 10, 14, node="n1", task="map:00000"),
            span("reduce", "reduce", 20, 25, node="n2", task="reduce:000", map_task=0),
            span("map-phase", "phase", 0, 25),
        ],
        events=[TraceEvent("node.crash", "recovery", 2, node="n2")],
        job_name="hand-built",
    )


class TestAnalyzeModel:
    def test_report_shape_and_phase_shares(self):
        report = analyze_model(_model())
        assert report["schema"] == SCHEMA
        assert report["job"] == "hand-built"
        assert report["makespan"] == 25
        assert report["spans"] == 4 and report["events"] == 1
        # shares are over work spans only; the phase envelope is excluded
        assert report["phases"]["map"] == {
            "spans": 1, "ticks": 10, "share": round(10 / 19, 4),
        }
        assert sum(r["share"] for r in report["phases"].values()) == pytest.approx(
            1.0, abs=0.001
        )
        assert validate_report(report) == []

    def test_render_json_is_canonical(self):
        report = analyze_model(_model())
        text = render_json(report)
        assert text.endswith("\n")
        assert json.loads(text) == json.loads(render_json(json.loads(text)))
        keys = list(json.loads(text))
        assert keys == sorted(keys)

    def test_render_text_and_html(self):
        report = analyze_model(_model())
        text = render_text(report)
        assert "performance analysis: hand-built" in text
        assert "critical path" in text and "barriers & pipelining" in text
        html = render_html(report)
        assert html.startswith("<!doctype html>")
        assert "<table>" in html and "repro.analyze/v1" in html

    def test_validate_report_rejects_malformed(self):
        assert validate_report([]) == ["top level must be an object, got list"]
        assert "unknown schema" in validate_report({"schema": "bogus"})[0]
        broken = analyze_model(_model())
        broken["makespan"] = "fast"
        broken["critical_path"]["chain"][0]["t0"] = None
        errors = validate_report(broken)
        assert any("makespan" in e for e in errors)
        assert any("chain[0].t0" in e for e in errors)


# -- the metrics view: distributions and levels read off span/event args ---------


class TestDerivedMetrics:
    def test_histogram_buckets_by_hand(self):
        """Bounds are 1, 4, 16, ...; a value lands in the first bound >= it,
        past 4**15 in ``inf``; only non-empty buckets are reported."""
        sizes = [0, 1, 2, 4, 5, 16, 17, 4**15, 4**15 + 1]
        spans = [span("sort", "sort", 10 * i, 10 * i + 5, records=n) for i, n in enumerate(sizes)]
        spans.append(span("map", "map", 0, 9, records=10**9))  # not a row's span
        assert derive_metrics(spans) == {
            "map.sort.records": {
                "type": "histogram",
                "count": 9,
                "total": sum(sizes),
                "buckets": [
                    {"le": 1, "n": 2},
                    {"le": 4, "n": 2},
                    {"le": 16, "n": 2},
                    {"le": 64, "n": 1},
                    {"le": 4**15, "n": 1},
                    {"le": "inf", "n": 1},
                ],
            }
        }

    def test_push_chunks_per_span_or_per_map(self):
        """One-pass pushes one chunk per span (``bytes``), HOP one span per
        map holding every chunk's size (``chunk_bytes``); both feed one row."""
        spans = [
            span("push", "shuffle", 0, 3, bytes=100, records=7),
            span("push", "shuffle", 3, 9, chunk_bytes=[3, 5000, 5000], bytes_pushed=10003),
            span("push", "shuffle", 9, 10, chunk_bytes=[]),
        ]
        hist = derive_metrics(spans)["push.chunk.bytes"]
        assert (hist["count"], hist["total"]) == (4, 10103)
        assert hist["buckets"] == [{"le": 4, "n": 1}, {"le": 256, "n": 1}, {"le": 16384, "n": 2}]

    def test_gauges_by_hand(self):
        """Samples keep trace order; the tick is the clock reading the level
        was current at — an event's ``ts``, the tick before a span opened."""
        spans = [
            span("reduce", "reduce", 41, 50, task="reduce:000", resident_keys=7, groups=7),
            span("reduce", "reduce", 51, 60, task="reduce:001", groups=3),  # hybrid: no table
            span("reduce", "reduce", 61, 64, task="reduce:002", resident_keys=2.0),
        ]
        events = [
            TraceEvent("cache.spill", "cache", 12, args={"bytes": 900, "resident_bytes": 3100}),
            TraceEvent("cache.register", "cache", 13, args={"resident_bytes": 1}),
            TraceEvent("cache.spill", "cache", 30, args={"bytes": 800, "resident_bytes": 0}),
        ]
        metrics = derive_metrics(spans, events)
        assert list(metrics) == ["cache.resident.bytes", "hash.resident.keys"]  # sorted
        assert metrics["hash.resident.keys"] == {
            "type": "gauge", "count": 2, "min": 2, "max": 7, "last": 2,
            "samples": [[40, 7], [60, 2]],
        }
        assert metrics["cache.resident.bytes"] == {
            "type": "gauge", "count": 2, "min": 0, "max": 3100, "last": 0,
            "samples": [[12, 3100], [30, 0]],
        }
        assert json.dumps(metrics)  # plain ints throughout

    def test_nothing_to_read_is_no_section(self):
        assert derive_metrics([]) == {}
        assert derive_metrics([span("map", "map", 0, 5)], [TraceEvent("node.crash", "", 1)]) == {}

    @pytest.mark.parametrize("fmt", ["jsonl", "chrome"])
    def test_legacy_stale_section_is_ignored(self, tmp_path, fmt):
        """A trace from before the view was derived carries its own copy of
        the metrics; it loads, and the report is what the spans say."""
        spans = [span("sort", "sort", 1, 9, task="map:00000", records=8)]
        stale = {"map.sort.records": {"type": "histogram", "count": 99, "total": 99, "buckets": []}}
        path = tmp_path / f"old.{fmt}"
        if fmt == "jsonl":
            line = json.dumps({"type": "metric", "name": "map.sort.records", "metric": stale})
            path.write_text(to_jsonl(spans, job_name="old") + line + "\n")
        else:
            obj = chrome_trace(spans, job_name="old")
            obj["otherData"]["metrics"] = stale
            path.write_text(json.dumps(obj))
        report = analyze_model(load_trace(str(path)))
        assert report["job"] == "old"
        assert report["metrics"] == derive_metrics(spans)
        assert report["metrics"]["map.sort.records"]["count"] == 1

    # per-user-count, 4 000 records, 3 nodes, 64 KiB blocks, serial — the
    # ``metrics`` section the registry reported at the commit that removed it
    # (HOP: its ``push.chunk.bytes`` then, plus the sort histogram it lacked),
    # re-recorded when input blocks became one pickle frame per write chunk:
    # the input is two blocks (map tasks) now, three before.
    RECORDED = {
        "hadoop": {
            "map.sort.records": {
                "type": "histogram", "count": 2, "total": 4000,
                "buckets": [{"le": 4096, "n": 2}],
            },
            "shuffle.segment.bytes": {
                "type": "histogram", "count": 4, "total": 7856,
                "buckets": [{"le": 4096, "n": 4}],
            },
        },
        "hop": {
            "map.sort.records": {
                "type": "histogram", "count": 3, "total": 4000,
                "buckets": [{"le": 1024, "n": 1}, {"le": 4096, "n": 2}],
            },
            "push.chunk.bytes": {
                "type": "histogram", "count": 6, "total": 22944,
                "buckets": [{"le": 4096, "n": 4}, {"le": 16384, "n": 2}],
            },
        },
        "onepass": {
            "hash.resident.keys": {
                "type": "gauge", "count": 2, "min": 99, "max": 100, "last": 99,
                "samples": [[5099, 100], [5200, 99]],
            },
            "push.chunk.bytes": {
                "type": "histogram", "count": 4, "total": 69972,
                "buckets": [{"le": 16384, "n": 1}, {"le": 65536, "n": 3}],
            },
        },
    }

    @pytest.mark.parametrize("engine", sorted(RECORDED))
    def test_fixed_cell_matches_the_recorded_section(self, engine, tmp_path):
        records_fn, sm_job, op_job = paper_jobs("per-user-count")
        cluster = LocalCluster(num_nodes=3, block_size=64 * 1024)
        cluster.hdfs.write_records("in", records_fn(4000))
        engine_cls = {"hadoop": HadoopEngine, "hop": HOPEngine, "onepass": OnePassEngine}[engine]
        job = (op_job if engine == "onepass" else sm_job)("in", "out")
        tracer = Tracer()
        engine_cls(cluster, tracer=tracer).run(job)
        report = analyze_tracer(tracer)
        assert report["metrics"] == self.RECORDED[engine]
        # ... and a file of that trace analyses to the live report, either format
        for fmt in ("jsonl", "chrome"):
            path = str(tmp_path / f"t.{fmt}")
            write_trace(path, fmt, tracer.spans, tracer.events)
            assert analyze_model(load_trace(path)) == report


# -- loading trace files -------------------------------------------------------


class TestLoadTrace:
    def test_jsonl_roundtrip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(
            json.dumps({"type": "meta", "job": "wc"}) + "\n"
            + json.dumps(
                {
                    "type": "span", "name": "map", "cat": "map",
                    "t0": 0, "t1": 10, "task": "map:00000", "wall_us": 1500,
                }
            )
            + "\n"
            + json.dumps({"type": "event", "name": "node.crash", "cat": "recovery", "ts": 2})
            + "\n"
            + json.dumps(
                {
                    "type": "metric", "name": "map.sort.records",
                    "metric": {"type": "gauge", "count": 1},
                }
            )
            + "\n"
        )
        model = load_trace(str(path))
        assert model.job_name == "wc"
        assert model.spans[0].t1 == 10 and model.spans[0].wall_s == 0.0015
        assert model.events[0].name == "node.crash"
        assert model.makespan == 10
        # the legacy ``metric`` record loads and is ignored: no sort span, no row
        assert analyze_model(model)["metrics"] == {}

    def test_rejects_non_trace_file(self, tmp_path):
        path = tmp_path / "junk.txt"
        path.write_text("hello world\n")
        with pytest.raises(ValueError, match="not a jsonl or chrome trace"):
            load_trace(str(path))

    def test_rejects_unknown_jsonl_record(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"type": "bogus"}\n')
        with pytest.raises(ValueError, match="unknown jsonl record type"):
            load_trace(str(path))


# -- end to end on a real (small) run ------------------------------------------


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """One journaled Hadoop run; returns (tracer, journal_dir)."""
    records = list(
        generate_clicks(
            ClickStreamConfig(num_clicks=500, num_users=40, num_urls=25, seed=3)
        )
    )
    cluster = LocalCluster(num_nodes=2, block_size=16 * 1024)
    cluster.hdfs.write_records("in", records)
    journal_dir = tmp_path_factory.mktemp("wal")
    tracer = Tracer()
    journal = JobJournal(journal_dir)
    HadoopEngine(cluster, tracer=tracer, journal=journal).run(
        per_user_count_job("in", "out")
    )
    return tracer, journal_dir


class TestEndToEnd:
    def test_analyze_tracer_validates_and_renders(self, small_run):
        tracer, _ = small_run
        report = analyze_tracer(tracer, job_name="per-user-count")
        assert validate_report(report) == []
        assert report["makespan"] == tracer.clock
        assert report["phases"]  # map/sort/shuffle/reduce all attributed
        assert report["critical_path"]["total_ticks"] > 0
        assert report["barriers"]["work_ticks"] > 0
        for render in (render_text, render_json, render_html):
            assert render(report)

    def test_blocking_engine_reads_as_blocking(self, small_run):
        """The paper's Fig. 4 signature: sort-merge pipelines ~nothing."""
        tracer, _ = small_run
        report = analyze_tracer(tracer)
        assert report["barriers"]["pipelining_efficiency"] < 0.5
        assert report["barriers"]["sort_merge_ticks"] > 0

    def test_analyze_journal(self, small_run):
        _, journal_dir = small_run
        report = analyze_journal(str(journal_dir))
        assert report["schema"] == JOURNAL_SCHEMA
        assert validate_report(report) == []
        assert report["engine"] == "hadoop"
        assert report["maps_committed"] > 0
        assert report["output"]["commits"] == 1
        assert report["output"]["digest"]
        assert "session" not in report

    def test_analyze_journal_detail(self, small_run):
        _, journal_dir = small_run
        report = analyze_journal(str(journal_dir), detail=True)
        assert report["session"]["records"] > 0
        assert report["session"]["truncated_bytes"] == 0
        text = render_text(report)
        assert "journal committed state" in text
        assert render_html(report).startswith("<!doctype html>")
