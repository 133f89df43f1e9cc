"""Benchmark-suite plumbing: the report check and the shared builders.

Every test builds an :class:`repro.analysis.report.ExperimentReport`
(paper claim vs measured value per metric) and hands it to the ``check``
fixture, which fails the test unless every shape holds; the terminal
summary prints them all, so ``pytest benchmarks/ | tee bench_output.txt``
is the full paper-vs-measured record.

The experiments are deterministic simulations or whole engine runs, so
each runs once: :func:`simulate` memoises a simulator run per distinct
argument set, :func:`run` loads records onto a fresh cluster
(:func:`load`) and runs one job on it, and :func:`clicks` generates the
click logs they read.
"""

from __future__ import annotations

import functools
import time
from typing import NamedTuple

import pytest

from repro.analysis.report import ExperimentReport
from repro.mapreduce.driver import JobResult
from repro.mapreduce.runtime import LocalCluster
from repro.simulator import CLUSTER_2011
from repro.workloads.clickstream import ClickStreamConfig, generate_clicks

#: Series bucket of every simulator run (seconds); it bins the series and
#: moves nothing else, so every test shares one.
BUCKET = 30.0

_REPORTS: list[ExperimentReport] = []


@pytest.fixture
def check():
    """Register a report for the terminal summary and assert its shapes."""

    def check(report: ExperimentReport) -> None:
        _REPORTS.append(report)
        assert report.all_hold, report.render()

    return check


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _REPORTS:
        return
    tr = terminalreporter
    tr.section("paper-vs-measured experiment reports")
    for report in _REPORTS:
        tr.write_line("")
        for line in report.render().splitlines():
            tr.write_line(line)


def simulate(pipeline, profile, spec=CLUSTER_2011, **kw):
    """``pipeline(spec, profile, **kw).run()``, once per distinct argument
    set: the stock 256 GB sessionization run serves six tests."""
    return _simulate(pipeline, profile, spec, tuple(sorted(kw.items())))


@functools.cache
def _simulate(pipeline, profile, spec, kw):
    return pipeline(spec, profile, metric_bucket=BUCKET, **dict(kw)).run()


@functools.lru_cache(maxsize=1)
def clicks(num_clicks: int, num_users: int, num_urls: int, **kw) -> list:
    """A synthetic click log; the last one asked for is kept, so the tests
    of one module share theirs."""
    config = ClickStreamConfig(
        num_clicks=num_clicks, num_users=num_users, num_urls=num_urls, **kw
    )
    return list(generate_clicks(config))


def load(records, *, path="in", nodes=3, block_kb=256, codec=None, replication=1):
    """A fresh :class:`LocalCluster` with ``records`` written at ``path``."""
    cluster = LocalCluster(
        num_nodes=nodes, block_size=block_kb * 1024, replication=replication
    )
    cluster.hdfs.write_records(path, records, codec=codec)
    return cluster


class Run(NamedTuple):
    result: JobResult
    cluster: LocalCluster
    #: Process CPU seconds of the engine run alone (loading excluded).
    cpu_s: float

    @property
    def counters(self):
        return self.result.counters

    def output(self) -> list:
        return list(self.cluster.hdfs.read_records(self.result.output_path))


def run(engine, job, records, *, nodes=3, block_kb=256, codec=None, replication=1, **engine_kw):
    """Run ``job`` with ``engine(cluster, **engine_kw)`` over a fresh cluster
    holding ``records`` at the job's input path."""
    cluster = load(
        records, path=job.input_path, nodes=nodes, block_kb=block_kb,
        codec=codec, replication=replication,
    )
    cpu = time.process_time()
    result = engine(cluster, **engine_kw).run(job)
    return Run(result, cluster, time.process_time() - cpu)
