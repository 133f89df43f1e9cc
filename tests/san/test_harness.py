"""Harness lifecycle: patching, scope tracking, and canonical reports."""

import pytest

from repro.san.harness import (
    ALL_DETECTORS,
    Sanitizer,
    SanitizerConfig,
    active_sanitizer,
)
from repro.san.report import SanReport, Violation

pytestmark = pytest.mark.no_reprosan  # these tests install their own sanitizers


def _patch_points():
    """(owner, attr) pairs the sanitizer patches; captured for restore checks."""
    from repro.exec import base as exec_base
    from repro.mapreduce.driver import JobDriver
    from repro.mapreduce.journal import JobJournal
    from repro.obs.tracer import Tracer

    points = [
        (exec_base, "get_kernel"),
        (JobJournal, "append"),
        (Tracer, "absorb"),
        (JobDriver, "run"),
    ]
    return points


class TestLifecycle:
    def test_install_remove_restores_every_patch_point(self):
        before = {
            (owner.__name__, attr): getattr(owner, attr)
            for owner, attr in _patch_points()
        }
        with Sanitizer():
            during = {
                (owner.__name__, attr): getattr(owner, attr)
                for owner, attr in _patch_points()
            }
            assert during != before  # something actually got patched
        after = {
            (owner.__name__, attr): getattr(owner, attr)
            for owner, attr in _patch_points()
        }
        assert after == before

    def test_active_sanitizer_tracks_install(self):
        assert active_sanitizer() is None
        with Sanitizer() as san:
            assert active_sanitizer() is san
        assert active_sanitizer() is None

    def test_double_install_rejected(self):
        with Sanitizer():
            with pytest.raises(RuntimeError):
                Sanitizer().install()

    def test_config_rejects_unknown_detector(self):
        with pytest.raises(ValueError):
            SanitizerConfig(detectors=("sentinel", "turbo"))

    def test_all_detectors_named(self):
        assert set(ALL_DETECTORS) == {"sentinel", "race", "resource", "pickle"}

    def test_clean_scope_produces_clean_report(self):
        with Sanitizer() as san:
            with san.engine_scope():
                pass
        assert san.report.clean
        assert san.report.detectors == ALL_DETECTORS

    def test_sentinels_silent_outside_engine_scope(self):
        import time

        with Sanitizer() as san:
            time.time()  # outside engine scope: not a violation
        assert san.report.clean


class TestEngineScope:
    @pytest.mark.parametrize("engine", ["hadoop", "hop", "onepass"])
    def test_every_engine_runs_inside_engine_scope(self, engine):
        """``JobDriver.run`` is the one patch point: an engine whose run
        slipped past it would silently lose SAN001/SAN103/SAN205."""
        from repro.core.engine import OnePassConfig, OnePassEngine, OnePassJob
        from repro.mapreduce import HadoopEngine, HOPEngine, LocalCluster, MapReduceJob
        from repro.san import harness

        depths = []

        def map_fn(record):
            depths.append(harness._ENGINE_DEPTH)
            return [(record % 3, 1)]

        def reduce_fn(key, values):
            return [(key, sum(values))]

        cluster = LocalCluster(num_nodes=2, block_size=256)
        cluster.hdfs.write_records("in", list(range(60)))
        if engine == "onepass":
            job = OnePassJob(
                "count", map_fn, reduce_fn=reduce_fn, config=OnePassConfig(mode="hybrid"),
                input_path="in", output_path="out",
            )  # fmt: skip
            runner = OnePassEngine(cluster)
        else:
            job = MapReduceJob("count", map_fn, reduce_fn, input_path="in", output_path="out")
            runner = (HadoopEngine if engine == "hadoop" else HOPEngine)(cluster)
        with Sanitizer() as san:
            runner.run(job)
        assert depths and min(depths) >= 1
        assert harness._ENGINE_DEPTH == 0
        assert san.report.clean


class TestReportCanonicalisation:
    def _v(self, **kw):
        base = dict(id="SAN103", message="m", path="p", line=1, task="t")
        base.update(kw)
        return Violation(**base)

    def test_finalize_sorts_and_dedups(self):
        report = SanReport()
        report.add(self._v(id="SAN205", message="later"))
        report.add(self._v(message="dup"))
        report.add(self._v(message="dup"))
        report.add(self._v(message="a-first"))
        report.finalize()
        assert [v.message for v in report.violations] == ["a-first", "dup", "later"]

    def test_json_and_text_are_deterministic(self):
        def build():
            report = SanReport(detectors=("resource",))
            report.add(self._v(message="z"))
            report.add(self._v(id="SAN205", message="a", clock=4))
            return report.finalize()

        assert build().to_json() == build().to_json()
        assert build().to_text() == build().to_text()

    def test_counts_by_violation_id(self):
        report = SanReport()
        report.add(self._v(message="a"))
        report.add(self._v(message="b"))
        report.add(self._v(id="SAN205", message="c"))
        assert report.counts() == {"SAN103": 2, "SAN205": 1}

    def test_sarif_round_trips_and_names_static_rules(self):
        import json

        report = SanReport(detectors=("resource",))
        report.add(self._v(witness=(("site", "x.py:3"),)))
        doc = json.loads(report.finalize().to_sarif())
        (run,) = doc["runs"]
        assert run["tool"]["driver"]["name"] == "reprosan"
        (result,) = run["results"]
        assert result["ruleId"] == "SAN103"
        assert result["properties"]["staticRules"] == ["REP205"]
        assert result["properties"]["witness"] == {"site": "x.py:3"}

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            SanReport().format("xml")


class TestSharedStateTracking:
    def test_kernel_scope_write_to_tracked_global_reports_san201(self):
        from repro.exec.base import SerialExecutor, register_kernel

        state = {}

        def writer_kernel(ctx, spec):
            state["k"] = spec  # deliberate: kernel-scope write to shared state
            return spec

        register_kernel("san.test.writer", writer_kernel)
        with Sanitizer(SanitizerConfig(detectors=("race",))) as san:
            san.track_shared("tests.san.test_harness.state", state)
            with san.engine_scope():
                with SerialExecutor().session(context=None) as session:
                    session.run_batch("san.test.writer", [{"part": 0}])
        assert [v.id for v in san.report.violations] == ["SAN201"]
        assert "tests.san.test_harness.state" in san.report.violations[0].message

    def test_provider_snapshot_detects_key_set_growth(self):
        from repro.exec.base import SerialExecutor, register_kernel

        cache = {}

        def cache_kernel(ctx, spec):
            cache[spec["part"]] = b"x"  # deliberate: kernel populates a cache
            return spec

        register_kernel("san.test.cache", cache_kernel)
        with Sanitizer(SanitizerConfig(detectors=("race",))) as san:
            san.track_shared("cache.keys", lambda: sorted(cache))
            with san.engine_scope():
                with SerialExecutor().session(context=None) as session:
                    session.run_batch("san.test.cache", [{"part": 7}])
        assert [v.id for v in san.report.violations] == ["SAN201"]
