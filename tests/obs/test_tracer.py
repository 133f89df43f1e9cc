"""Tracer unit tests: logical clock, spans, events, absorb, null path,
and the open-span count a task or job may not end with."""

import pickle

import pytest

from repro.mapreduce.runtime import HadoopEngine, LocalCluster
from repro.mapreduce.sortmerge import SortMergeReduceTask
from repro.obs.tracer import (
    NULL_TRACER,
    NullTracer,
    Tracer,
    byte_cost,
    task_tracer,
)
from repro.workloads import per_user_count_job
from repro.workloads.clickstream import ClickStreamConfig, generate_clicks


class TestLogicalClock:
    def test_span_advances_clock_by_cost(self):
        tr = Tracer()
        with tr.span("map", "map", node="n0", cost=100):
            pass
        assert tr.clock == 101  # +1 on entry, +100 on exit
        (span,) = tr.spans
        assert (span.t0, span.t1) == (1, 101)

    def test_default_cost_is_one(self):
        tr = Tracer()
        with tr.span("x", "map", node="n0"):
            pass
        assert tr.clock == 2
        assert tr.spans[0].t1 - tr.spans[0].t0 == 1

    def test_set_cost_inside_block(self):
        tr = Tracer()
        with tr.span("sort", "sort", node="n0") as span:
            span.set_cost(50)
        assert tr.spans[0].t1 - tr.spans[0].t0 == 50

    def test_cost_floor_is_one(self):
        tr = Tracer()
        with tr.span("x", "map", node="n0", cost=0):
            pass
        assert tr.spans[0].t1 > tr.spans[0].t0

    def test_nested_spans_enclose_children(self):
        tr = Tracer()
        with tr.span("outer", "map", node="n0", cost=10):
            with tr.span("inner", "sort", node="n0", cost=5):
                pass
        inner = next(s for s in tr.spans if s.name == "inner")
        outer = next(s for s in tr.spans if s.name == "outer")
        assert outer.t0 < inner.t0
        assert outer.t1 > inner.t1

    def test_event_ticks_clock(self):
        tr = Tracer()
        tr.event("task.killed", "recovery", node="n1", task="map:00001")
        assert tr.clock == 1
        (event,) = tr.events
        assert event.ts == 1
        assert event.node == "n1"

    def test_add_span_does_not_advance_clock(self):
        tr = Tracer()
        c0 = tr.clock
        tr.add_span("map-phase", "phase", 0, 100, wall_s=1.5)
        assert tr.clock == c0
        assert tr.spans[0].wall_s == 1.5

    def test_wall_clock_is_advisory_only(self):
        tr = Tracer()
        with tr.span("map", "map", node="n0", cost=10):
            pass
        span = tr.spans[0]
        assert span.wall_s >= 0.0
        assert (span.t1 - span.t0) == 10  # unaffected by wall time


class TestSpanArgs:
    def test_kwargs_and_set(self):
        tr = Tracer()
        with tr.span("spill", "spill", node="n0", bytes=1024) as span:
            span.set(segments=3)
        assert tr.spans[0].args == {"bytes": 1024, "segments": 3}

    def test_task_label(self):
        tr = Tracer()
        with tr.span("map", "map", node="n0", task="map:00007"):
            pass
        assert tr.spans[0].task == "map:00007"


class TestAbsorb:
    def test_rebases_child_ticks(self):
        child = Tracer()
        with child.span("map", "map", node="n0", cost=10):
            pass
        parent = Tracer()
        with parent.span("setup", "phase", node="", cost=5):
            pass
        base = parent.clock
        parent.absorb(child.export())
        span = next(s for s in parent.spans if s.name == "map")
        assert span.t0 == base + 1
        assert parent.clock == base + child.clock

    def test_absorb_in_order_is_deterministic(self):
        def child(n):
            tr = Tracer()
            with tr.span(f"map{n}", "map", node=f"n{n}", cost=n + 1):
                pass
            return tr.export()

        a, b = Tracer(), Tracer()
        exports = [child(0), child(1), child(2)]
        for e in exports:
            a.absorb(e)
        for e in exports:
            b.absorb(e)
        assert [(s.name, s.t0, s.t1) for s in a.spans] == [
            (s.name, s.t0, s.t1) for s in b.spans
        ]

    def test_absorb_none_is_noop(self):
        tr = Tracer()
        tr.absorb(None)
        assert tr.clock == 0 and not tr.spans

    def test_absorb_events(self):
        child = Tracer()
        child.event("task.killed", "recovery", node="n0")
        parent = Tracer()
        with parent.span("x", "map", node="n0", cost=7):
            pass
        base = parent.clock
        parent.absorb(child.export())
        assert parent.events[0].ts == base + 1

    def test_export_is_picklable(self):
        tr = Tracer()
        with tr.span("map", "map", node="n0", cost=3, bytes=10):
            pass
        tr.event("e", "recovery", node="n0")
        export = pickle.loads(pickle.dumps(tr.export()))
        other = Tracer()
        other.absorb(export)
        assert other.spans[0].name == "map"
        assert other.events[0].name == "e"


class TestNullTracer:
    def test_singleton_disabled(self):
        assert NULL_TRACER.enabled is False
        assert isinstance(NULL_TRACER, NullTracer)

    def test_all_operations_noop(self):
        with NULL_TRACER.span("x", "map", node="n0", cost=5) as h:
            h.set_cost(10)
            h.set(bytes=1)
        NULL_TRACER.event("e", "c", node="n0")
        NULL_TRACER.add_span("p", "phase", 0, 10)
        assert NULL_TRACER.export() is None
        assert NULL_TRACER.clock == 0

    def test_task_tracer_factory(self):
        assert task_tracer(False) is NULL_TRACER
        on = task_tracer(True)
        assert on.enabled and on.clock == 0 and on is not NULL_TRACER


class TestByteCost:
    def test_scaling(self):
        assert byte_cost(0) == 1
        assert byte_cost(63) == 1
        assert byte_cost(64) == 1
        assert byte_cost(6400) == 100

    def test_monotone(self):
        costs = [byte_cost(n) for n in range(0, 10_000, 123)]
        assert costs == sorted(costs)


class TestTracerEnabled:
    def test_real_tracer_enabled(self):
        assert Tracer().enabled is True

    def test_add_span_enforces_min_width(self):
        tr = Tracer()
        tr.add_span("p", "phase", 5, 5)
        assert tr.spans[0].t1 == 6


class TestOpenSpans:
    """A span entered and never exited corrupts the logical clock for the
    rest of the trace, so the count of open spans is checked where a
    trace ends: a task's :meth:`Tracer.export` and the end of a job."""

    def test_entry_and_exit_balance_the_count(self):
        tr = Tracer()
        with tr.span("outer"):
            with tr.span("inner"):
                assert tr.open_spans == 2
        assert tr.open_spans == 0
        assert NULL_TRACER.open_spans == 0

    def test_export_refuses_an_open_span(self):
        tr = Tracer()
        handle = tr.span("map")
        handle.__enter__()
        with pytest.raises(RuntimeError, match="1 span"):
            tr.export()
        handle.__exit__(None, None, None)
        assert tr.export()[2] == tr.clock

    @staticmethod
    def _job_run(tracer):
        cluster = LocalCluster(num_nodes=3, block_size=32 * 1024)
        cluster.hdfs.write_records(
            "in", list(generate_clicks(ClickStreamConfig(num_clicks=600, num_users=30)))
        )
        return HadoopEngine(cluster, tracer=tracer).run(per_user_count_job("in", "out"))

    def test_a_job_that_ends_with_an_open_span_is_refused(self, monkeypatch):
        tracer = Tracer()
        close = HadoopEngine._close

        def close_leaving_a_span_open(self, run):
            self.tracer.span("leak").__enter__()
            close(self, run)

        monkeypatch.setattr(HadoopEngine, "_close", close_leaving_a_span_open)
        with pytest.raises(RuntimeError, match="1 span"):
            self._job_run(tracer)

    def test_a_raising_fetch_closes_its_span(self, monkeypatch):
        def fail(self, run, nbytes):
            raise OSError("segment unreadable")

        monkeypatch.setattr(SortMergeReduceTask, "accept_segment", fail)
        tracer = Tracer()
        with pytest.raises(OSError, match="segment unreadable"):
            self._job_run(tracer)
        assert tracer.open_spans == 0
