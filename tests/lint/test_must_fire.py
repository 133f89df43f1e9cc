"""The must-fire table: every rule in ``ALL_RULES`` fires on one violating
snippet and stays quiet on its conforming rewrite.

One row per surviving contract, each a fixture already used by the
per-rule suites (whose harnesses this module borrows), so "the rule set
fires once per contract" is a property the suite checks rather than one
a reader assembles from three test modules.  A rule added without a row
here fails :func:`test_every_rule_must_fire`.
"""

import pytest

from repro.lint import ALL_RULES, LintConfig, lint_source
from tests.lint import test_cfg_rules as cfg_layer
from tests.lint import test_dataflow as flow_layer

ENGINE_MOD = "repro/core/fixture.py"
KERNEL_MOD = "repro/exec/kernels.py"


def per_file(**cfg_kw):
    """Lint against the real program with registry overrides."""

    def run(source, rule, modpath=ENGINE_MOD):
        return lint_source(
            source, modpath=modpath, config=LintConfig(select=(rule,), **cfg_kw)
        )

    return run


def as_kernel_module(source, rule):
    return lint_source(
        source,
        modpath=KERNEL_MOD,
        config=LintConfig(select=(rule,), kernel_source_override=source),
    )


def hot_module(source, rule):
    return per_file(hot_path_modules_override=("repro/core/hot.py",))(
        source, rule, modpath="repro/core/hot.py"
    )


def flow(source, rule):
    return flow_layer.lint(source, select=(rule,))


def cfg(source, rule):
    return cfg_layer.lint(source, select=(rule,))


def cfg_as_kernel_module(source, rule):
    return cfg_layer.lint(source, select=(rule,), modpath=KERNEL_MOD, kernel_src=source)


#: rule id -> (harness, violating snippet, conforming snippet)
MUST_FIRE = {
    "REP002": (
        as_kernel_module,
        "def k(ctx, spec):\n    print(spec)\n\nregister_kernel('k', k)\n",
        "def k(ctx, spec):\n    return [spec]\n\nregister_kernel('k', k)\n",
    ),
    "REP004": (
        per_file(counter_names_override=frozenset({"MAP_INPUT_RECORDS"})),
        "from repro.mapreduce.counters import C\nNAME = C.MAP_INPUT_RECORD\n",
        "from repro.mapreduce.counters import C\nNAME = C.MAP_INPUT_RECORDS\n",
    ),
    "REP005": (
        per_file(span_names_override=frozenset({"map"})),
        "def run(tracer):\n    handle = tracer.span('map')\n    handle.__enter__()\n",
        "def run(tracer):\n    with tracer.span('map'):\n        pass\n",
    ),
    "REP006": (
        per_file(),
        "def f(keys):\n    s = set(keys)\n    for k in s:\n        yield k\n",
        "def f(keys):\n    s = set(keys)\n    for k in sorted(s):\n        yield k\n",
    ),
    "REP007": (
        hot_module,
        "class State:\n    def __init__(self):\n        self.count = 0\n",
        "class State:\n    __slots__ = ('count',)\n",
    ),
    "REP101": (
        flow,
        "import time\n\ndef run():\n    return time.time()\n",
        "import time\n\ndef run():\n    return time.perf_counter()\n",
    ),
    "REP102": (
        flow,
        "from repro.core import helper\nfrom repro.exec.kernels import FakeSpec\n\n"
        "def build():\n    return FakeSpec(lambda x: x + 1)\n",
        "from repro.core import helper\nfrom repro.exec.kernels import FakeSpec\n\n"
        "def build():\n    return FakeSpec(helper.pure(2))\n",
    ),
    "REP104": (
        flow,
        "def run(tracer, shard):\n    with tracer.span(f'shard-{shard}'):\n        pass\n",
        "def run(tracer):\n    part = 're'\n    with tracer.span(part + 'duce'):\n        pass\n",
    ),
    "REP201": (
        cfg_as_kernel_module,
        "TOTAL = 0\n\nclass MapSpec:\n    pass\n\n"
        "def tally_kernel(ctx, spec):\n    global TOTAL\n    TOTAL = TOTAL + 1\n    return TOTAL\n\n"
        "register_kernel('tally', tally_kernel)\n",
        "class MapSpec:\n    pass\n\n"
        "def tally_kernel(ctx, spec):\n    return spec\n\n"
        "register_kernel('tally', tally_kernel)\n",
    ),
    "REP202": (
        cfg,
        "from repro.exec.kernels import MapSpec\n\n"
        "def build(path):\n    fh = open(path)\n    return MapSpec(fh)\n",
        "from repro.exec.kernels import MapSpec\n\n"
        "def build(path):\n    return MapSpec(path)\n",
    ),
    "REP204": (
        cfg,
        "def flush(journal, hdfs, job, block):\n"
        "    hdfs.append_block(job.output_path, block)\n"
        "    journal.append(K_REDUCE_COMMIT, {'reduce': job.rid})\n",
        "def flush(journal, hdfs, job, block):\n"
        "    journal.append(K_REDUCE_COMMIT, {'reduce': job.rid})\n"
        "    hdfs.append_block(job.output_path, block)\n",
    ),
    "REP205": (
        cfg,
        "def load(path, parse):\n    fh = open(path)\n    header = parse(fh.readline())\n"
        "    try:\n        return header\n    finally:\n        fh.close()\n",
        "def load(path, parse):\n    fh = open(path)\n"
        "    try:\n        return parse(fh.readline())\n    finally:\n        fh.close()\n",
    ),
}


@pytest.mark.parametrize("rule", [r.id for r in ALL_RULES])
def test_every_rule_must_fire(rule):
    assert rule in MUST_FIRE, f"{rule} has no must-fire row"
    harness, violating, conforming = MUST_FIRE[rule]
    fired = harness(violating, rule)
    assert fired and {f.rule for f in fired} == {rule}, fired
    assert harness(conforming, rule) == []


def test_no_row_outlives_its_rule():
    assert set(MUST_FIRE) == {r.id for r in ALL_RULES}
