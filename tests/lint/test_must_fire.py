"""The must-fire table: every rule in ``ALL_RULES`` fires on one violating
snippet and stays quiet on its conforming rewrite.

One row per surviving contract, each a fixture already used by the
per-rule suites, so "the rule set fires once per contract" is a property
the suite checks rather than one a reader assembles from the per-rule
tests.  A rule added without a row
here fails :func:`test_every_rule_must_fire`.
"""

import pytest

from repro.lint import ALL_RULES, LintConfig, lint_source

ENGINE_MOD = "repro/core/fixture.py"
KERNEL_MOD = "repro/exec/kernels.py"


def engine_module(source, rule):
    return lint_source(source, modpath=ENGINE_MOD, config=LintConfig(select=(rule,)))


def as_kernel_module(source, rule):
    return lint_source(source, modpath=KERNEL_MOD, config=LintConfig(select=(rule,)))


def hot_module(source, rule):
    return lint_source(
        source,
        modpath="repro/core/hot.py",
        config=LintConfig(select=(rule,), hot_path_modules_override=("repro/core/hot.py",)),
    )


#: rule id -> (harness, violating snippet, conforming snippet)
MUST_FIRE = {
    "REP002": (
        as_kernel_module,
        "def k(ctx, spec):\n    print(spec)\n\nregister_kernel('k', k)\n",
        "def k(ctx, spec):\n    return [spec]\n\nregister_kernel('k', k)\n",
    ),
    "REP007": (
        hot_module,
        "class State:\n    def __init__(self):\n        self.count = 0\n",
        "class State:\n    __slots__ = ('count',)\n",
    ),
    "REP101": (
        engine_module,
        "import time\n\ndef run():\n    return time.time()\n",
        "import time\n\ndef run():\n    return time.perf_counter()\n",
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


#: REP101 on a source taken as a value: the call it feeds is out of sight.
REP101_REFERENCES = {
    "assigned": (
        "import time\n\ndef run():\n    clock = time.time\n    return clock()\n",
        "import time\n\ndef run():\n    clock = time.perf_counter\n    return clock()\n",
    ),
    "argument": (
        "import time\n\ndef run(stamp):\n    return stamp(key=time.time)\n",
        "import time\n\ndef run(stamp):\n    return stamp(key=time.perf_counter)\n",
    ),
    "default": (
        "import time\n\ndef run(clock=time.time):\n    return clock()\n",
        "import time\n\ndef run(clock=time.perf_counter):\n    return clock()\n",
    ),
}


@pytest.mark.parametrize("form", sorted(REP101_REFERENCES))
def test_rep101_fires_on_a_source_taken_as_a_value(form):
    violating, conforming = REP101_REFERENCES[form]
    fired = engine_module(violating, "REP101")
    assert [(f.rule, "time.time" in f.message) for f in fired] == [("REP101", True)]
    assert engine_module(conforming, "REP101") == []
